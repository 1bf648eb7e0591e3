package analytics

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// Sessionizer splits per-user event streams into sessions: each user's
// events in time order, cut wherever two consecutive events are more than
// Timeout apart.
type Sessionizer struct {
	// Timeout is the maximum inactivity gap inside a session (default 30m).
	Timeout time.Duration
}

// SessionCounts is the outcome of sessionizing a set of events.
type SessionCounts struct {
	// Sessions is the number of sessions.
	Sessions int
	// Converted is the number of sessions holding a converted event.
	Converted int
}

// ConversionRate returns the fraction of sessions with a converted event.
func (c SessionCounts) ConversionRate() float64 {
	if c.Sessions == 0 {
		return 0
	}
	return float64(c.Converted) / float64(c.Sessions)
}

// sessionEvent is one event laid out in its user's group.
type sessionEvent struct {
	at        int64
	converted bool
}

func compareEventTimes(a, b sessionEvent) int { return cmp.Compare(a.at, b.at) }

// Count sessionizes events given as three parallel columns: each event's
// user, its time in Unix milliseconds, and whether it converted. Events may
// arrive in any order. Two consecutive events of one user share a session
// when they are at most Timeout apart, compared at millisecond granularity.
//
// Rows are grouped by user in one pass that looks a user up only where it
// differs from the previous row's, then laid out group by group by a
// counting pass. A group is sorted by time only when it is not already in
// order; events with equal times never split, so their order does not
// matter.
func (s *Sessionizer) Count(users, times []int64, converted []bool) (SessionCounts, error) {
	n := len(users)
	if n == 0 {
		return SessionCounts{}, ErrNoData
	}
	if len(times) != n || len(converted) != n {
		return SessionCounts{}, fmt.Errorf("%w: %d users, %d times, %d conversion flags",
			ErrDimMismatch, n, len(times), len(converted))
	}
	timeout := s.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Minute
	}
	maxGap := uint64(timeout / time.Millisecond)

	group := make([]int32, n)
	var sizes []int
	ids := map[int64]int32{}
	cur := int32(0)
	for i, u := range users {
		if i == 0 || u != users[i-1] {
			id, ok := ids[u]
			if !ok {
				id = int32(len(sizes))
				ids[u] = id
				sizes = append(sizes, 0)
			}
			cur = id
		}
		group[i] = cur
		sizes[cur]++
	}
	// Group g's events go to events[start[g]:start[g+1]], in row order.
	start := make([]int, len(sizes)+1)
	for g, size := range sizes {
		start[g+1] = start[g] + size
	}
	next := slices.Clone(start[:len(sizes)])
	events := make([]sessionEvent, n)
	for i, g := range group {
		events[next[g]] = sessionEvent{at: times[i], converted: converted[i]}
		next[g]++
	}

	var c SessionCounts
	for g := range sizes {
		evs := events[start[g]:start[g+1]]
		if !slices.IsSortedFunc(evs, compareEventTimes) {
			slices.SortFunc(evs, compareEventTimes)
		}
		conv := false
		for j, ev := range evs {
			// Within a sorted group the difference is non-negative, so its
			// unsigned form is exact even where int64 subtraction overflows.
			if j > 0 && uint64(ev.at-evs[j-1].at) > maxGap {
				c.add(conv)
				conv = false
			}
			conv = conv || ev.converted
		}
		c.add(conv)
	}
	return c, nil
}

// add counts one finished session.
func (c *SessionCounts) add(converted bool) {
	c.Sessions++
	if converted {
		c.Converted++
	}
}
