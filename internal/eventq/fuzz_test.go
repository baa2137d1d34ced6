package eventq

import (
	"encoding/binary"
	"testing"
)

// FuzzLadderVsHeap drives the reference heap engine (refEngine) and the
// ladder-backed Engine through the identical fuzzer-chosen
// schedule/pop/reserve program and requires the two dispatch streams —
// (clock, payload) pairs — to match exactly, along with Pending,
// MaxPending, and Executed. The heap is the reference implementation of
// the (timestamp, seq) total order; any divergence is a ladder ordering
// bug.
//
// Program encoding (one op per 3 bytes, permissive by construction so
// every input is a valid program):
//
//	byte 0 % 8: 0-3 schedule via At, 4 schedule via AtReserved (if any
//	            reserved seqs remain; else At), 5-7 pop via Step
//	bytes 1-2:  time offset, quantized to quarter-seconds so equal
//	            timestamps — the tie-break cases — are common; an offset
//	            of 0xFFxx maps far into the future to exercise the
//	            ladder's overflow tier
//
// The first byte of the input picks how many sequence numbers to reserve
// (0..63) before anything is scheduled.
func FuzzLadderVsHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 0, 0, 0, 1, 0, 0, 5, 0, 0, 4, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 5, 0, 0, 5, 0, 0})
	// Far-future bursts mixed with ties and pops.
	f.Add([]byte{
		16,
		0, 0xFF, 0xFF, 4, 0, 0, 0, 0xFF, 0x00, 4, 2, 0,
		5, 0, 0, 6, 0, 0, 7, 0, 0, 0, 2, 0, 4, 2, 0,
	})
	f.Fuzz(func(t *testing.T, program []byte) {
		type fired struct {
			now float64
			id  int
		}
		var gotH, gotL []fired
		h := newRefEngine(func(now float64, id int) { gotH = append(gotH, fired{now, id}) }, 0)
		l := New(func(now float64, id int) { gotL = append(gotL, fired{now, id}) }, 0)
		var reserved, nextReserved uint64
		if len(program) > 0 {
			reserved = uint64(program[0] % 64)
			program = program[1:]
			h.ReserveSeqs(reserved)
			l.ReserveSeqs(reserved)
			nextReserved = 1
		}
		id := 0
		for len(program) >= 3 {
			op := program[0] % 8
			raw := binary.LittleEndian.Uint16(program[1:3])
			program = program[3:]
			dt := float64(raw) * 0.25
			if raw >= 0xFF00 {
				// Overflow-tier territory: far beyond the live window.
				dt = float64(raw) * 1e7
			}
			switch {
			case op == 4 && nextReserved > 0 && nextReserved <= reserved:
				h.AtReserved(h.Now()+dt, nextReserved, id)
				l.AtReserved(l.Now()+dt, nextReserved, id)
				nextReserved++
				id++
			case op < 5:
				h.After(dt, id)
				l.After(dt, id)
				id++
			default:
				h.Step()
				l.Step()
			}
			if h.Pending() != l.Pending() {
				t.Fatalf("pending diverged mid-program: heap %d ladder %d", h.Pending(), l.Pending())
			}
		}
		h.Run()
		l.Run()
		if h.Executed() != l.Executed() {
			t.Fatalf("executed diverged: heap %d ladder %d", h.Executed(), l.Executed())
		}
		if h.MaxPending() != l.MaxPending() {
			t.Fatalf("MaxPending diverged: heap %d ladder %d", h.MaxPending(), l.MaxPending())
		}
		if len(gotH) != len(gotL) {
			t.Fatalf("dispatched %d (heap) vs %d (ladder) events", len(gotH), len(gotL))
		}
		for i := range gotH {
			if gotH[i] != gotL[i] {
				t.Fatalf("dispatch %d diverged: heap (t=%v id=%d), ladder (t=%v id=%d)",
					i, gotH[i].now, gotH[i].id, gotL[i].now, gotL[i].id)
			}
		}
	})
}
