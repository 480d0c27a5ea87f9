package analysis

import (
	"strings"
	"testing"
)

// TestStagedPipeHotPathFixtures pins the hot-path designations of the
// staged pipe-transfer path: TransferStaged and the fused group runners
// must stay allocation-free, while the exempted construction path
// (newGroup's freelist) may allocate.
func TestStagedPipeHotPathFixtures(t *testing.T) {
	l := newTestLoader(t)
	fixtures := []fixture{
		{
			// Allocation sources in the designated functions fire:
			// formatting in TransferStaged, string concatenation in a
			// staged-group callback runner.
			name:     "hotpathalloc_staged_bad",
			analyzer: "hotpathalloc",
			pkgPath:  "mpipart/internal/sim",
			src: `package sim
import "fmt"
type Time int64
type Pipe struct{ last string }
type stagedGroup struct{ tag string }
func (pp *Pipe) TransferStaged(size int64) Time {
	pp.last = fmt.Sprintf("staged %d", size)
	return Time(size)
}
func (g *stagedGroup) runLocal() {
	g.tag = "fired:" + g.tag
}
`,
			want: []string{
				"fmt.Sprintf call in scheduler hot path Pipe.TransferStaged",
				"string concatenation in scheduler hot path stagedGroup.runLocal",
			},
		},
		{
			// The clean fused path is silent, and newGroup is outside the
			// hot set (freelist-amortized construction may allocate).
			name:     "hotpathalloc_staged_ok",
			analyzer: "hotpathalloc",
			pkgPath:  "mpipart/internal/sim",
			src: `package sim
type Time int64
type stagedGroup struct {
	local []func()
	next  *stagedGroup
}
type Pipe struct {
	pend *stagedGroup
	free *stagedGroup
}
func (pp *Pipe) TransferStaged(size int64, onLocal func()) Time {
	g := pp.pend
	if g == nil {
		g = pp.newGroup()
		pp.pend = g
	}
	g.local = append(g.local, onLocal)
	return Time(size)
}
func (pp *Pipe) newGroup() *stagedGroup {
	g := pp.free
	if g == nil {
		g = &stagedGroup{local: []func(){}}
	}
	pp.free = g.next
	return g
}
`,
		},
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			diags := runFixture(t, l, fx)
			if len(diags) != len(fx.want) {
				t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(fx.want), raceDiagDump(diags))
			}
			for i, want := range fx.want {
				if !strings.Contains(diags[i].Message, want) {
					t.Errorf("finding %d = %q, want substring %q", i, diags[i].Message, want)
				}
			}
		})
	}
}
