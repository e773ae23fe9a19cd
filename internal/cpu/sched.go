package cpu

// Event-driven instruction scheduling. An unissued ROB entry is in exactly
// one of three places:
//
//   - on the waiter list of a producer that has not issued yet
//     (pending > 0);
//   - in wakeQ, keyed by the cycle its last producer's result arrives
//     (or in soon, when that is the next cycle);
//   - in the ready list, kept in program order.
//
// Operand readiness is monotone (a result, once available, stays
// available), so issue only has to walk the ready list with the same
// oldest-first functional-unit rules the full issue-queue scan applied.
// Entries that are not ready never touched the unit counters, so the
// decisions are identical to that scan. The equality relies on every
// latency being at least one cycle: a result issued this cycle is never
// consumed in the same cycle.

// cycleEvent is one scheduled cycle: an entry's wake cycle in wakeQ or an
// issued entry's completion cycle in doneQ (idx unused).
type cycleEvent struct {
	at  int64
	idx int32
}

// cycleHeap is a binary min-heap on at. Its capacity is allocated once at
// the ROB size, which bounds both queues, so the steady state never
// allocates.
type cycleHeap []cycleEvent

func (h *cycleHeap) push(at int64, idx int) {
	s := append(*h, cycleEvent{at: at, idx: int32(idx)})
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].at <= s[i].at {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

func (h *cycleHeap) pop() cycleEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && s[r].at < s[m].at {
			m = r
		}
		if s[i].at <= s[m].at {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}

// waitLink encodes operand slot k of the consumer at ROB index idx as a
// waiter-list link; 0 ends a list, so a zeroed robEntry has none.
func waitLink(idx, k int) int32 { return int32(idx*2+k) + 1 }

// depend records that the entry at ROB index idx reads, through operand
// slot k, the result of the instruction d positions earlier in program
// order. A producer that has retired (or d == 0, no operand) imposes
// nothing; one that has issued only raises the entry's wake cycle; one
// still waiting to issue gets the entry onto its waiter list.
func (c *Core) depend(idx, k, d int) {
	if d <= 0 || d > c.robCount {
		return
	}
	p := idx - d
	if p < 0 {
		p += len(c.rob)
	}
	e, pe := &c.rob[idx], &c.rob[p]
	if pe.issued {
		if pe.doneCycle > e.wake {
			e.wake = pe.doneCycle
		}
		return
	}
	e.pending++
	e.waitNext[k] = pe.waiters
	pe.waiters = waitLink(idx, k)
}

// wakeConsumers runs when the entry issues: every consumer on its waiter
// list learns the result's arrival cycle, and those with no producer left
// to wait for move to wakeQ, or to soon when they are ready by the next
// cycle (issue merges soon into the ready list once its walk is done).
func (c *Core) wakeConsumers(e *robEntry) {
	for l := e.waiters; l != 0; {
		idx, k := int(l-1)>>1, int(l-1)&1
		w := &c.rob[idx]
		l = w.waitNext[k]
		if e.doneCycle > w.wake {
			w.wake = e.doneCycle
		}
		if w.pending--; w.pending > 0 {
			continue
		}
		if w.wake <= c.cycle+1 {
			c.soon = append(c.soon, idx)
		} else {
			c.wakeQ.push(w.wake, idx)
		}
	}
	e.waiters = 0
}

// insertReady adds the entry at ROB index idx to the ready list in
// program order. Newly ready entries are usually the youngest, so the
// search runs from the tail.
func (c *Core) insertReady(idx int) {
	r := append(c.ready, idx)
	seq := c.rob[idx].seq
	i := len(r) - 1
	for ; i > 0 && c.rob[r[i-1]].seq > seq; i-- {
		r[i] = r[i-1]
	}
	r[i] = idx
	c.ready = r
}

// noteDone records the completion cycle of an entry issued this cycle
// for fastForward, first dropping completions already in the past. Every
// event left in doneQ then belongs to a distinct issued, unretired entry,
// which bounds its size by the ROB. A cycle that issues never
// fast-forwards, so a completion due next cycle is in the past by the
// next fastForward and is not recorded at all.
func (c *Core) noteDone(at int64) {
	if at <= c.cycle+1 {
		return
	}
	c.dropPastDone()
	c.doneQ.push(at, 0)
}

func (c *Core) dropPastDone() {
	for len(c.doneQ) > 0 && c.doneQ[0].at <= c.cycle {
		c.doneQ.pop()
	}
}
