package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// leafModuleSamples reads gzipped CPU profiles in the pprof protobuf format
// and counts samples by the module of their leaf frame (see leafModule).
// It decodes only the fields it needs, with no dependency outside the
// standard library.
func leafModuleSamples(files []string) (counts map[string]int64, total int64, err error) {
	counts = map[string]int64{}
	for _, path := range files {
		p, err := readProfile(path)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		for _, s := range p.samples {
			if len(s.locs) == 0 || len(s.values) == 0 {
				continue
			}
			mod := leafModule(p.strings[p.funcName[p.locFunc[s.locs[0]]]])
			counts[mod] += s.values[0]
			total += s.values[0]
		}
	}
	return counts, total, nil
}

// leafModule maps a function name to the module host.share reports it
// under.
func leafModule(fn string) string {
	switch {
	case strings.HasPrefix(fn, "mpipart/internal/"):
		rest := strings.TrimPrefix(fn, "mpipart/internal/")
		pkg := rest[:strings.IndexAny(rest+".", "./")]
		for _, m := range hostModules {
			if m == pkg {
				return m
			}
		}
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "net/http."):
		return "net_http"
	case strings.HasPrefix(fn, "encoding/json."):
		return "encoding_json"
	}
	return "other"
}

// profile is the part of a pprof Profile message leafModuleSamples reads.
type profile struct {
	samples  []sample
	locFunc  map[uint64]uint64 // location ID -> function ID of its innermost line
	funcName map[uint64]int64  // function ID -> string table index
	strings  []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func readProfile(path string) (*profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFunc: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendPacked(&s.locs, v, b, func(x uint64) uint64 { return x })
				case 2:
					return appendPacked(&s.values, v, b, func(x uint64) int64 { return int64(x) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			lines := 0
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined call
					lines++
					if lines == 1 {
						return eachField(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			p.locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range p.samples {
		for _, l := range s.locs {
			if n := p.funcName[p.locFunc[l]]; n < 0 || n >= int64(len(p.strings)) {
				return nil, errors.New("profile: string index out of range")
			}
		}
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField calls fn for every field of a protobuf message: v holds a
// varint field's value, b a length-delimited field's bytes. Fixed-width
// fields, which the profile format does not use, are skipped.
func eachField(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed (b set) or not.
func appendPacked[T any](dst *[]T, v uint64, b []byte, conv func(uint64) T) error {
	if b == nil {
		*dst = append(*dst, conv(v))
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, conv(x))
		b = b[n:]
	}
	return nil
}
