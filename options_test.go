package stm

import (
	"reflect"
	"sync"
	"testing"
)

// configFieldBudget is the number of fields stm.Config may have. A new knob
// is a hot-path branch, a test-matrix multiplier and a CORRECTNESS.md
// paragraph; adding one means raising this budget where review sees it.
const configFieldBudget = 11

// TestConfigFieldBudget is the knob ratchet: Config must not grow past
// configFieldBudget fields.
func TestConfigFieldBudget(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n > configFieldBudget {
		t.Errorf("stm.Config has %d fields, budget %d: ROADMAP item 12 (cull) asks that every knob earn its place — "+
			"delete one, or raise configFieldBudget in the same change and say why", n, configFieldBudget)
	}
}

// optionVariants are the runtime-option combinations (beyond the default)
// that every algorithm must behave identically under.
var optionVariants = []struct {
	name string
	mut  func(*Config)
}{
	{"capFence", func(c *Config) { c.CapFenceAtCommit = true }},
	{"block4", func(c *Config) { c.BlockWords = 4 }},
	{"smallOrecs", func(c *Config) { c.OrecCount = 16 }},
	{"grace8", func(c *Config) { c.MaxGrace = 8 }},
}

// TestOptionVariantsCounter runs the concurrent-counter isolation check
// across every algorithm under every option variant.
func TestOptionVariantsCounter(t *testing.T) {
	for _, v := range optionVariants {
		t.Run(v.name, func(t *testing.T) {
			forEachAlgorithm(t, func(t *testing.T, alg Algorithm) {
				cfg := Config{Algorithm: alg, HeapWords: 1 << 14, OrecCount: 1 << 10, MaxThreads: 8}
				v.mut(&cfg)
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ctr := s.MustAlloc(1)
				var wg sync.WaitGroup
				for i := 0; i < 4; i++ {
					th := s.MustNewThread()
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer th.Close() // before Done: the final read needs every thread closed
						for j := 0; j < 150; j++ {
							_ = th.Atomic(func(tx *Tx) { tx.Store(ctr, tx.Load(ctr)+1) })
						}
					}()
				}
				wg.Wait()
				if got := peek(t, s, ctr); got != 600 {
					t.Errorf("counter = %d, want 600", got)
				}
			})
		})
	}
}

// TestOptionVariantsPairInvariant stresses opacity under the variants with
// mixed readers and writers.
func TestOptionVariantsPairInvariant(t *testing.T) {
	for _, v := range optionVariants {
		t.Run(v.name, func(t *testing.T) {
			for _, alg := range []Algorithm{PVRCAS, PVRStore, PVRWriterOnly, PVRHybrid} {
				t.Run(alg.String(), func(t *testing.T) {
					cfg := Config{Algorithm: alg, HeapWords: 1 << 12, OrecCount: 1 << 8, MaxThreads: 6}
					v.mut(&cfg)
					s, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					a := s.MustAlloc(2)
					var wg sync.WaitGroup
					fail := make(chan string, 8)
					for w := 0; w < 2; w++ {
						th := s.MustNewThread()
						wg.Add(1)
						go func(v Word) {
							defer wg.Done()
							for i := 0; i < 200; i++ {
								_ = th.Atomic(func(tx *Tx) {
									tx.Store(a, v)
									tx.Store(a+1, v)
								})
								v += 2
							}
						}(Word(w + 1))
					}
					for r := 0; r < 2; r++ {
						th := s.MustNewThread()
						wg.Add(1)
						go func() {
							defer wg.Done()
							for i := 0; i < 400; i++ {
								_ = th.Atomic(func(tx *Tx) {
									if tx.Load(a) != tx.Load(a+1) {
										select {
										case fail <- "torn pair":
										default:
										}
									}
								})
							}
						}()
					}
					wg.Wait()
					close(fail)
					for msg := range fail {
						t.Error(msg)
					}
				})
			}
		})
	}
}
