package cpu

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// pollSrc reaches a ready-flag poll loop after a little set-up work, so
// the machine has cached data and stack state when it starts idling.
const pollSrc = `
.data
v:      .word 5
.code
start:  SIG
        MOVI r2, =v
        LD   r3, 0(r2)
        ADDI r3, r3, 1
        ST   r3, 0(r2)
        ADDI r14, r14, -8
        ST   r3, 0(r14)
        MOVI r1, 0x2000
wait:   SIG
        LD   r5, 12(r1)
        CMP  r5, r0
        BEQ  wait
        ADDI r6, r5, 3
        HALT
`

// pollStub is a PollBus whose word at each offset reads 0 for the first
// zeros[off] reads and 1 after (never, when zeros[off] < 0), counting
// every read.
type pollStub struct {
	zeros map[uint32]int
	reads map[uint32]int
}

func newPollStub(zeros map[uint32]int) *pollStub {
	return &pollStub{zeros: zeros, reads: make(map[uint32]int)}
}

func (p *pollStub) ReadIO(off uint32) uint32 {
	p.reads[off]++
	if z := p.zeros[off]; z < 0 || p.reads[off] <= z {
		return 0
	}
	return 1
}

func (p *pollStub) WriteIO(uint32, uint32) {}

func (p *pollStub) ReadZeros(off uint32, limit uint64) uint64 {
	var n uint64
	for n < limit && (p.zeros[off] < 0 || p.reads[off] < p.zeros[off]) {
		p.reads[off]++
		n++
	}
	return n
}

// atPollHead steps c until its PC is the wait label's SIG.
func atPollHead(t *testing.T, c *CPU, p *Program) {
	t.Helper()
	for c.PC != p.CodeLabels["wait"] {
		if err := c.Step(); err != nil {
			t.Fatalf("set-up step: %v", err)
		}
	}
}

// TestFastForwardMatchesStepping pins FastForward against its
// reference: stepping the same machine one instruction at a time for as
// many instructions as it reports must give the identical snapshot
// (cache hit/miss counters included) and the identical bus read counts,
// for random limits (non-multiples of 4 and the exact zero-run edge
// included) and from both the loop entry and a taken back edge.
func TestFastForwardMatchesStepping(t *testing.T) {
	p := MustAssemble(pollSrc)
	dec := Predecode(p)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		zeros := rng.Intn(40)
		var limit uint64
		switch trial % 4 {
		case 0:
			limit = uint64(4 * zeros) // the budget edge: exactly the zero run
		case 1:
			limit = uint64(4*zeros + 1 + rng.Intn(3))
		default:
			limit = uint64(rng.Intn(200))
		}
		ffBus := newPollStub(map[uint32]int{12: zeros})
		ff := New(p, ffBus)
		ff.AttachDecoded(dec)
		stepBus := newPollStub(map[uint32]int{12: zeros})
		step := New(p, stepBus)
		step.AttachDecoded(dec)
		atPollHead(t, ff, p)
		atPollHead(t, step, p)
		if trial%2 == 1 {
			// Re-enter through the back edge, so lastJump is set.
			for i := 0; i < 4 && zeros > 0; i++ {
				for _, c := range []*CPU{ff, step} {
					if err := c.Step(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}

		before := ff.InstrCount()
		n := ff.FastForward(limit)
		remaining := uint64(zeros - ffBus.reads[12] + int(n)/4)
		if want := 4 * min(limit/4, remaining); n != want {
			t.Fatalf("trial %d: FastForward(%d) ran %d instructions with %d zeros left, want %d",
				trial, limit, n, remaining, want)
		}
		if ff.InstrCount() != before+n {
			t.Fatalf("trial %d: InstrCount advanced %d, FastForward reported %d", trial, ff.InstrCount()-before, n)
		}
		for i := uint64(0); i < n; i++ {
			if err := step.Step(); err != nil {
				t.Fatalf("trial %d: reference step %d: %v", trial, i, err)
			}
		}
		if !reflect.DeepEqual(ff.Snapshot(), step.Snapshot()) {
			t.Fatalf("trial %d: snapshot after FastForward(%d) differs from %d steps", trial, limit, n)
		}
		if !reflect.DeepEqual(ffBus.reads, stepBus.reads) {
			t.Fatalf("trial %d: bus reads %v, stepping made %v", trial, ffBus.reads, stepBus.reads)
		}
		// The machines stay twins through the loop exit to HALT.
		for !step.Halted() {
			errF, errS := ff.Step(), step.Step()
			if errF != nil || errS != nil {
				t.Fatalf("trial %d: tail steps: %v / %v", trial, errF, errS)
			}
		}
		if !reflect.DeepEqual(ff.Snapshot(), step.Snapshot()) {
			t.Fatalf("trial %d: final snapshots differ", trial)
		}
	}
}

// TestFastForwardDeclines pins every case in which FastForward must do
// nothing: it returns 0 and leaves the machine and the bus untouched.
func TestFastForwardDeclines(t *testing.T) {
	p := MustAssemble(pollSrc)
	machine := func(bus IOBus, decoded bool) *CPU {
		c := New(p, bus)
		if decoded {
			c.AttachDecoded(Predecode(p))
		}
		atPollHead(t, c, p)
		return c
	}
	cases := []struct {
		name string
		c    func() (*CPU, *pollStub)
	}{
		{"no predecoded stream", func() (*CPU, *pollStub) {
			bus := newPollStub(map[uint32]int{12: -1})
			return machine(bus, false), bus
		}},
		{"limit below one trip", nil},
		{"address outside the I/O window", func() (*CPU, *pollStub) {
			bus := newPollStub(map[uint32]int{12: -1})
			c := machine(bus, true)
			c.Regs[1] = DataBase // polls a cached data word instead
			return c, bus
		}},
		{"misaligned address", func() (*CPU, *pollStub) {
			bus := newPollStub(map[uint32]int{12: -1})
			c := machine(bus, true)
			c.Regs[1] = IOBase + 1
			return c, bus
		}},
		{"not at a head", func() (*CPU, *pollStub) {
			bus := newPollStub(map[uint32]int{12: -1})
			c := machine(bus, true)
			if err := c.Step(); err != nil {
				t.Fatal(err)
			}
			return c, bus
		}},
		{"polled word already nonzero", func() (*CPU, *pollStub) {
			bus := newPollStub(map[uint32]int{12: 0})
			return machine(bus, true), bus
		}},
	}
	for _, tc := range cases {
		limit := uint64(1000)
		var c *CPU
		var bus *pollStub
		if tc.c == nil {
			bus = newPollStub(map[uint32]int{12: -1})
			c = machine(bus, true)
			limit = 3
		} else {
			c, bus = tc.c()
		}
		snap := c.Snapshot()
		reads := len(bus.reads)
		if n := c.FastForward(limit); n != 0 {
			t.Errorf("%s: FastForward ran %d instructions", tc.name, n)
		}
		if !reflect.DeepEqual(c.Snapshot(), snap) || len(bus.reads) != reads {
			t.Errorf("%s: a declined FastForward changed the machine or the bus", tc.name)
		}
	}

	// A bus without the PollBus capability.
	c := New(p, newStubIO())
	c.AttachDecoded(Predecode(p))
	atPollHead(t, c, p)
	snap := c.Snapshot()
	if n := c.FastForward(1000); n != 0 || !reflect.DeepEqual(c.Snapshot(), snap) {
		t.Errorf("plain IOBus: FastForward ran %d instructions", n)
	}

	// rd == rb: the load would move its own address, so the loop is no
	// poll-loop head.
	self := MustAssemble(strings.Replace(pollSrc, "LD   r5, 12(r1)\n        CMP  r5, r0",
		"LD   r1, 12(r1)\n        CMP  r1, r0", 1))
	bus := newPollStub(map[uint32]int{12: -1})
	c = New(self, bus)
	c.AttachDecoded(Predecode(self))
	atPollHead(t, c, self)
	snap = c.Snapshot()
	if n := c.FastForward(1000); n != 0 || !reflect.DeepEqual(c.Snapshot(), snap) || len(bus.reads) != 0 {
		t.Errorf("rd == rb: FastForward ran %d instructions", n)
	}
}

// TestPollHeadShape pins which loops count as poll-loop heads: rd == rb
// (the load moves its own address), rd == r0 (the compare ignores the
// load), a compare of other registers and a back edge to another label
// all disqualify the loop.
func TestPollHeadShape(t *testing.T) {
	loop := func(ld, cmp, beq string) string {
		return "\n.code\nstart:  SIG\n        MOVI r1, 0x2000\nwait:   SIG\n        " + ld +
			"\n        " + cmp + "\n        " + beq + "\n        HALT\n"
	}
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"canonical", loop("LD r5, 12(r1)", "CMP r5, r0", "BEQ wait"), true},
		{"rd == rb", loop("LD r1, 12(r1)", "CMP r1, r0", "BEQ wait"), false},
		{"rd == r0", loop("LD r0, 12(r1)", "CMP r0, r0", "BEQ wait"), false},
		{"compare against another register", loop("LD r5, 12(r1)", "CMP r5, r2", "BEQ wait"), false},
		{"compare of another register", loop("LD r5, 12(r1)", "CMP r6, r0", "BEQ wait"), false},
		{"back edge elsewhere", loop("LD r5, 12(r1)", "CMP r5, r0", "BEQ start"), false},
		{"other branch", loop("LD r5, 12(r1)", "CMP r5, r0", "BNE wait"), false},
	}
	for _, tc := range cases {
		p := MustAssemble(tc.src)
		c := New(p, nil)
		c.AttachDecoded(Predecode(p))
		c.PC = p.CodeLabels["wait"]
		c.lastJump = true
		if got := c.JumpedToPollHead(); got != tc.want {
			t.Errorf("%s: JumpedToPollHead = %v, want %v", tc.name, got, tc.want)
		}
	}
}
