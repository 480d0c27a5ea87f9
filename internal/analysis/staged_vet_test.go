package analysis

import (
	"strings"
	"testing"
)

// TestStagedPipeHotPathFixtures pins the hot-path designation of the
// staged pipe-transfer path: TransferStaged books the caller's callbacks as
// plain events and must stay allocation-free, so formatting or wrapping a
// callback in a closure per transfer fires.
func TestStagedPipeHotPathFixtures(t *testing.T) {
	l := newTestLoader(t)
	fixtures := []fixture{
		{
			name:     "hotpathalloc_staged_bad",
			analyzer: "hotpathalloc",
			pkgPath:  "mpipart/internal/sim",
			src: `package sim
import "fmt"
type Time int64
type Kernel struct{}
func (k *Kernel) At(t Time, fn func()) {}
type Pipe struct {
	k    *Kernel
	last string
}
func (pp *Pipe) TransferStaged(size int64, onLocal, onRemote func()) Time {
	pp.last = fmt.Sprintf("staged %d", size)
	pp.k.At(Time(size), func() { onLocal() })
	pp.k.At(Time(size), onRemote)
	return Time(size)
}
`,
			want: []string{
				"fmt.Sprintf call in scheduler hot path Pipe.TransferStaged",
				"closure literal in scheduler hot path Pipe.TransferStaged",
			},
		},
		{
			// The caller's callbacks booked as they are: silent.
			name:     "hotpathalloc_staged_ok",
			analyzer: "hotpathalloc",
			pkgPath:  "mpipart/internal/sim",
			src: `package sim
type Time int64
type Kernel struct{}
func (k *Kernel) At(t Time, fn func()) {}
type Pipe struct{ k *Kernel }
func (pp *Pipe) TransferStaged(size int64, onLocal, onRemote func()) Time {
	if onLocal != nil {
		pp.k.At(Time(size), onLocal)
	}
	if onRemote != nil {
		pp.k.At(Time(size), onRemote)
	}
	return Time(size)
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
