package analytics

// The event-object sessionizer that Sessionizer.Count replaced, kept as its
// test oracle: one Event per row, a map of per-user event slices, and a
// time.Time sort per user.

import (
	"sort"
	"time"
)

// Event is a single clickstream event used by the sessionizer.
type Event struct {
	UserID    int64
	At        time.Time
	Converted bool
}

// Session groups consecutive events of one user separated by gaps no longer
// than the sessionizer's timeout.
type Session struct {
	UserID    int64
	Start     time.Time
	End       time.Time
	Events    int
	Converted bool
}

// Duration returns the session's wall-clock span.
func (s Session) Duration() time.Duration { return s.End.Sub(s.Start) }

// Sessionize groups events into sessions. Events may arrive in any order;
// they are sorted per user by timestamp first.
func (s *Sessionizer) Sessionize(events []Event) ([]Session, error) {
	if len(events) == 0 {
		return nil, ErrNoData
	}
	timeout := s.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Minute
	}
	byUser := map[int64][]Event{}
	for _, ev := range events {
		byUser[ev.UserID] = append(byUser[ev.UserID], ev)
	}
	users := make([]int64, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })

	var sessions []Session
	for _, u := range users {
		evs := byUser[u]
		sort.Slice(evs, func(i, j int) bool { return evs[i].At.Before(evs[j].At) })
		var cur *Session
		for _, ev := range evs {
			if cur == nil || ev.At.Sub(cur.End) > timeout {
				if cur != nil {
					sessions = append(sessions, *cur)
				}
				cur = &Session{UserID: u, Start: ev.At, End: ev.At}
			}
			cur.End = ev.At
			cur.Events++
			cur.Converted = cur.Converted || ev.Converted
		}
		if cur != nil {
			sessions = append(sessions, *cur)
		}
	}
	return sessions, nil
}

// ConversionRate returns the fraction of sessions with a conversion event.
func ConversionRate(sessions []Session) float64 {
	if len(sessions) == 0 {
		return 0
	}
	converted := 0
	for _, s := range sessions {
		if s.Converted {
			converted++
		}
	}
	return float64(converted) / float64(len(sessions))
}
