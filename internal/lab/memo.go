package lab

import (
	"sync"

	"biglittle/internal/core"
)

// memoCap bounds the in-process result memo. A report needs 448 entries; at
// roughly 2.7 KB per result the cap holds about 11 MB, which keeps a
// long-lived runner (Default, blworker, blserve) from growing without end.
const memoCap = 4096

// memoEntry is one singleflight slot of the result memo. The leader that
// created it fills res and ok, then closes done; waiters read both only
// after done is closed.
type memoEntry struct {
	done chan struct{}
	res  core.Result
	ok   bool
}

// resultMemo is the runner's in-process result tier: one resolved result
// per job fingerprint, shared by every later job with the same fingerprint
// for the runner's lifetime. Only successful results are kept, and at most
// limit of them, oldest evicted first.
type resultMemo struct {
	mu      sync.Mutex
	limit   int // 0: memoCap
	entries map[string]*memoEntry
	order   []string // fingerprints of resolved entries, oldest first
}

// claim returns fp's entry and whether the caller created it. The creator
// must resolve it with publish; everyone else waits on its done channel.
func (m *resultMemo) claim(fp string) (e *memoEntry, leader bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[fp]; e != nil {
		return e, false
	}
	if m.entries == nil {
		m.entries = make(map[string]*memoEntry)
	}
	e = &memoEntry{done: make(chan struct{})}
	m.entries[fp] = e
	return e, true
}

// publish resolves a claimed entry and wakes its waiters. A successful
// result is kept (as a private copy, so the leader's caller may mutate its
// own) and may evict the oldest entries; a failed one is dropped, so each
// waiter resolves the job on its own with its own attempts.
func (m *resultMemo) publish(fp string, e *memoEntry, res core.Result, ok bool) {
	if ok {
		e.res, e.ok = res.Clone(), true
	}
	m.mu.Lock()
	if ok {
		m.order = append(m.order, fp)
		limit := m.limit
		if limit <= 0 {
			limit = memoCap
		}
		for len(m.order) > limit {
			delete(m.entries, m.order[0])
			m.order = m.order[1:]
		}
	} else {
		delete(m.entries, fp)
	}
	m.mu.Unlock()
	close(e.done)
}
