package sim

// ring is a growable FIFO ring buffer with power-of-two capacity: push and
// pop are O(1) with no per-element allocation (growth doubles, amortized).
// It backs the kernel run queue, Cond waiter lists and Queue payloads,
// replacing the copy-on-pop slices whose Pop cost O(n) per dequeue.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// push appends v at the tail.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the head. The ring must be non-empty.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero // release the reference for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// len reports the number of buffered items.
func (r *ring[T]) len() int { return r.n }

// empty reports whether the ring holds no items.
func (r *ring[T]) empty() bool { return r.n == 0 }

// grow doubles the capacity (minimum 8, always a power of two) and
// re-linearizes the contents at index 0.
func (r *ring[T]) grow() {
	c := 2 * len(r.buf)
	if c < 8 {
		c = 8
	}
	nb := make([]T, c)
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = nb, 0
}
