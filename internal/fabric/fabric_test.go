package fabric

import (
	"testing"

	"mpipart/internal/cluster"
	"mpipart/internal/sim"
)

func newTestFabric() (*sim.Kernel, *Fabric) {
	k := sim.NewKernel(1)
	m := cluster.DefaultModel()
	return k, New(k, &m, cluster.TwoNodeGH200())
}

func TestRouteIntraNodeUsesNVLink(t *testing.T) {
	_, f := newTestFabric()
	p := f.Route(0, 1)
	if p.Latency != f.Model.NVLinkLatency || p.BytesPerSec != f.Model.NVLinkBytesPerSec {
		t.Fatalf("intra-node route has wrong parameters: %+v", p)
	}
	if f.Route(0, 1) != p {
		t.Fatal("route not cached")
	}
	if f.Route(1, 0) == p {
		t.Fatal("reverse direction must be a distinct pipe")
	}
}

func TestRouteInterNodeUsesNIC(t *testing.T) {
	_, f := newTestFabric()
	p := f.Route(0, 4)
	if p.Latency != f.Model.IBLatency || p.BytesPerSec != f.Model.IBBytesPerSec {
		t.Fatalf("inter-node route has wrong parameters: %+v", p)
	}
	// Same source NIC is shared for all remote destinations.
	if f.Route(0, 5) != p {
		t.Fatal("NIC egress should be shared per source GPU")
	}
	// Different source GPU has its own NIC.
	if f.Route(1, 4) == p {
		t.Fatal("each GPU has its own NIC")
	}
}

func TestRouteSelfIsLocal(t *testing.T) {
	_, f := newTestFabric()
	p := f.Route(2, 2)
	if p.BytesPerSec <= f.Model.NVLinkBytesPerSec {
		t.Fatal("local HBM route should be faster than NVLink")
	}
}

func TestFlagWritePipeSerializesAtGap(t *testing.T) {
	k, f := newTestFabric()
	p := f.FlagWritePipe(0)
	var last sim.Time
	k.Go("w", func(pr *sim.Proc) {
		for i := 0; i < 4; i++ {
			last = p.Transfer(8)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(4*int64(f.Model.HostFlagWriteGap) + int64(f.Model.HostFlagWriteLatency))
	if last != want {
		t.Fatalf("4 flag writes deliver at %v, want %v", last, want)
	}
}

func TestControlRouteIntraNodeIsLoopback(t *testing.T) {
	_, f := newTestFabric()
	p := f.ControlRoute(0, 1)
	if p.Latency != f.Model.HostLoopbackLatency {
		t.Fatalf("intra-node control latency = %v, want loopback", p.Latency)
	}
	if f.ControlRoute(2, 3) == p {
		t.Fatal("loopback must be per directed pair: independent pairs do not serialize against each other")
	}
	if f.ControlRoute(0, 1) != p {
		t.Fatal("loopback pipe not cached per pair")
	}
	q := f.ControlRoute(0, 4)
	if q.Latency != f.Model.IBLatency {
		t.Fatal("inter-node control should ride the NIC")
	}
}

func TestTransferBytesAlphaBeta(t *testing.T) {
	_, f := newTestFabric()
	d := f.TransferBytes(0, 1, 150_000_000) // 1ms at 150GB/s
	want := f.Model.NVLinkLatency + sim.Millisecond
	if d != want {
		t.Fatalf("TransferBytes = %v, want %v", d, want)
	}
	if f.TransferBytes(0, 4, 0) != f.Model.IBLatency {
		t.Fatal("zero-byte inter-node transfer should cost pure latency")
	}
}

func TestHostDevicePipesDistinctPerGPUAndDirection(t *testing.T) {
	_, f := newTestFabric()
	if f.HostToDevice(0) == f.HostToDevice(1) {
		t.Fatal("h2d pipes must be per-GPU")
	}
	if f.HostToDevice(0) == f.DeviceToHost(0) {
		t.Fatal("h2d and d2h must be distinct directions")
	}
	if f.HostToDevice(0) != f.HostToDevice(0) {
		t.Fatal("h2d pipe should be cached")
	}
	if f.DeviceToHost(3) != f.DeviceToHost(3) {
		t.Fatal("d2h pipe should be cached")
	}
}

func TestNVLinkFasterThanIBForBulk(t *testing.T) {
	_, f := newTestFabric()
	const n = 8 << 20
	if f.TransferBytes(0, 1, n) >= f.TransferBytes(0, 4, n) {
		t.Fatal("NVLink should beat IB for bulk transfers")
	}
}

func TestStatsSortedAndAccumulated(t *testing.T) {
	k, f := newTestFabric()
	k.Go("traffic", func(pr *sim.Proc) {
		f.Route(0, 1).Transfer(100)
		f.Route(0, 1).Transfer(200)
		f.Route(0, 4).Transfer(50)
		f.FlagWritePipe(2).Transfer(8)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	stats := f.Stats()
	for i := 1; i < len(stats); i++ {
		if stats[i].Name < stats[i-1].Name {
			t.Fatal("stats not sorted")
		}
	}
	byName := map[string]LinkStat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	if s := byName["nvlink-0-1"]; s.Ops != 2 || s.Bytes != 300 {
		t.Fatalf("nvlink stats: %+v", s)
	}
	if s := byName["ib-nic-0"]; s.Ops != 1 || s.Bytes != 50 {
		t.Fatalf("ib stats: %+v", s)
	}
	var total int64
	for _, s := range stats {
		total += s.Bytes
	}
	if total != 358 {
		t.Fatalf("total = %d", total)
	}
}
