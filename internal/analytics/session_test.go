package analytics

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

// sessionColumns lays events out as Count's three columns, times in Unix
// milliseconds: the zero time reads as -62135596800000.
func sessionColumns(events []Event) (users, times []int64, converted []bool) {
	for _, ev := range events {
		users = append(users, ev.UserID)
		times = append(times, ev.At.UnixMilli())
		converted = append(converted, ev.Converted)
	}
	return users, times, converted
}

// countSessions is what Count must return for the oracle's sessions.
func countSessions(sessions []Session) SessionCounts {
	c := SessionCounts{Sessions: len(sessions)}
	for _, s := range sessions {
		if s.Converted {
			c.Converted++
		}
	}
	return c
}

func clickEvents() []Event {
	t0 := time.Date(2017, 3, 1, 10, 0, 0, 0, time.UTC)
	return []Event{
		// user 1, session 1: three events within minutes, converts.
		{UserID: 1, At: t0},
		{UserID: 1, At: t0.Add(2 * time.Minute)},
		{UserID: 1, At: t0.Add(5 * time.Minute), Converted: true},
		// user 1, session 2: after a 3 hour gap.
		{UserID: 1, At: t0.Add(3 * time.Hour)},
		// user 2, single session, out of order on purpose.
		{UserID: 2, At: t0.Add(10 * time.Minute)},
		{UserID: 2, At: t0.Add(1 * time.Minute)},
	}
}

func TestSessionize(t *testing.T) {
	s := &Sessionizer{Timeout: 30 * time.Minute}
	sessions, err := s.Sessionize(clickEvents())
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 3 {
		t.Fatalf("sessions = %d, want 3: %+v", len(sessions), sessions)
	}
	// First session of user 1.
	first := sessions[0]
	if first.UserID != 1 || first.Events != 3 || !first.Converted {
		t.Errorf("first session = %+v", first)
	}
	if first.Duration() != 5*time.Minute {
		t.Errorf("first session duration = %v, want 5m", first.Duration())
	}
	// Second session of user 1 must not inherit conversion.
	second := sessions[1]
	if second.UserID != 1 || second.Converted || second.Events != 1 {
		t.Errorf("second session = %+v", second)
	}
	// User 2's events must be re-ordered by time.
	third := sessions[2]
	if third.UserID != 2 || third.Events != 2 || third.Duration() != 9*time.Minute {
		t.Errorf("third session = %+v", third)
	}

	t0 := time.Date(2017, 3, 1, 10, 0, 0, 0, time.UTC)
	cases := []struct {
		name   string
		events []Event
		want   []Session
	}{
		{
			// Equal timestamps: the session converts whichever way the sort
			// orders the tied events.
			name: "equal timestamps with mixed conversion",
			events: []Event{
				{UserID: 3, At: t0},
				{UserID: 3, At: t0, Converted: true},
				{UserID: 3, At: t0},
			},
			want: []Session{{UserID: 3, Start: t0, End: t0, Events: 3, Converted: true}},
		},
		{
			// The split test is strict: a gap of exactly the timeout stays in
			// the session, one millisecond more starts a new one.
			name: "gap of exactly the timeout",
			events: []Event{
				{UserID: 4, At: t0},
				{UserID: 4, At: t0.Add(30 * time.Minute)},
				{UserID: 4, At: t0.Add(60*time.Minute + time.Millisecond), Converted: true},
			},
			want: []Session{
				{UserID: 4, Start: t0, End: t0.Add(30 * time.Minute), Events: 2},
				{UserID: 4, Start: t0.Add(60*time.Minute + time.Millisecond), End: t0.Add(60*time.Minute + time.Millisecond), Events: 1, Converted: true},
			},
		},
		{
			// Null times reach the sessionizer as the zero time: they sort
			// first and form their own session.
			name: "zero-time events",
			events: []Event{
				{UserID: 5, At: t0},
				{UserID: 5},
				{UserID: 5, Converted: true},
			},
			want: []Session{
				{UserID: 5, Events: 2, Converted: true},
				{UserID: 5, Start: t0, End: t0, Events: 1},
			},
		},
		{
			// Sessions come out in ascending user order, whatever the input
			// order of the users.
			name: "users out of order",
			events: []Event{
				{UserID: 9, At: t0},
				{UserID: 7, At: t0.Add(time.Minute)},
				{UserID: 8, At: t0.Add(2 * time.Minute), Converted: true},
				{UserID: 7, At: t0},
			},
			want: []Session{
				{UserID: 7, Start: t0, End: t0.Add(time.Minute), Events: 2},
				{UserID: 8, Start: t0.Add(2 * time.Minute), End: t0.Add(2 * time.Minute), Events: 1, Converted: true},
				{UserID: 9, Start: t0, End: t0, Events: 1},
			},
		},
	}
	for _, tc := range cases {
		got, err := s.Sessionize(tc.events)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: sessions = %+v, want %+v", tc.name, got, tc.want)
		}
		counts, err := s.Count(sessionColumns(tc.events))
		if want := countSessions(tc.want); err != nil || counts != want {
			t.Errorf("%s: Count = %+v, %v, want %+v", tc.name, counts, err, want)
		}
	}
	counts, err := s.Count(sessionColumns(clickEvents()))
	if want := (SessionCounts{Sessions: 3, Converted: 1}); err != nil || counts != want {
		t.Errorf("click events: Count = %+v, %v, want %+v", counts, err, want)
	}
}

func TestSessionizeDefaultsAndErrors(t *testing.T) {
	s := &Sessionizer{}
	if _, err := s.Sessionize(nil); !errors.Is(err, ErrNoData) {
		t.Error("empty events must fail")
	}
	// Default 30m timeout: two events 20 minutes apart share a session.
	t0 := time.Now().UTC()
	sessions, err := s.Sessionize([]Event{
		{UserID: 1, At: t0},
		{UserID: 1, At: t0.Add(20 * time.Minute)},
	})
	if err != nil || len(sessions) != 1 {
		t.Errorf("sessions = %v, %v", sessions, err)
	}

	if _, err := s.Count(nil, nil, nil); !errors.Is(err, ErrNoData) {
		t.Errorf("Count of no events: err = %v, want ErrNoData", err)
	}
	if _, err := s.Count([]int64{1, 1}, []int64{0}, []bool{false, true}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("Count of ragged columns: err = %v, want ErrDimMismatch", err)
	}
	ms := t0.UnixMilli()
	if c, err := s.Count([]int64{1, 1}, []int64{ms, ms + (20 * time.Minute).Milliseconds()}, []bool{false, false}); err != nil || c.Sessions != 1 {
		t.Errorf("default timeout: Count = %+v, %v, want one session", c, err)
	}
}

func TestFunnelAndConversionRate(t *testing.T) {
	s := &Sessionizer{Timeout: 30 * time.Minute}
	sessions, err := s.Sessionize(clickEvents())
	if err != nil {
		t.Fatal(err)
	}
	if got := ConversionRate(sessions); got <= 0.3 || got >= 0.4 {
		t.Errorf("conversion rate = %v, want 1/3", got)
	}
	if ConversionRate(nil) != 0 {
		t.Error("conversion rate of no sessions must be 0")
	}
	counts, err := s.Count(sessionColumns(clickEvents()))
	if err != nil || counts.ConversionRate() != ConversionRate(sessions) {
		t.Errorf("Count conversion rate = %v (%v), want %v", counts.ConversionRate(), err, ConversionRate(sessions))
	}
	if (SessionCounts{}).ConversionRate() != 0 {
		t.Error("conversion rate of no counted sessions must be 0")
	}
}

// FuzzSessionization holds Count to the event-object oracle. Each three
// bytes of data are one event: a user (out of order, repeated, negative),
// a time from a palette, and a conversion bit. The palette has null times
// (the zero time, as a run reads a null), times of exactly the zero time's
// Unix milliseconds, both int64 extremes and their neighbours, and times
// k timeouts from a base with offsets of 0 and ±1 ms, so ties, gaps of
// exactly the timeout and gaps of one millisecond more all occur. minutes
// picks the timeout; 0 is the default.
func FuzzSessionization(f *testing.F) {
	f.Add([]byte{1, 6, 0}, uint8(0))
	f.Add([]byte{3, 6, 0, 3, 6, 1, 3, 6, 0}, uint8(30))
	f.Add([]byte{4, 0x0a, 0, 4, 0x1a, 0, 4, 0x26, 1}, uint8(30)) // gaps of the timeout, then 1 ms more
	f.Add([]byte{5, 6, 0, 5, 0, 0, 5, 1, 1, 5, 0, 1}, uint8(0))
	f.Add([]byte{9, 2, 0, 7, 3, 1, 8, 4, 0, 7, 5, 1, 9, 3, 0}, uint8(1))
	f.Add([]byte{2, 0x1b, 1, 2, 0, 0, 2, 0x2c, 0, 1, 0x3d, 1}, uint8(45))
	f.Fuzz(func(t *testing.T, data []byte, minutes uint8) {
		s := &Sessionizer{Timeout: time.Duration(minutes%90) * time.Minute}
		timeout := s.Timeout
		if timeout <= 0 {
			timeout = 30 * time.Minute
		}
		const zeroMs = -62135596800000 // time.Time{}.UnixMilli()
		step := timeout.Milliseconds()
		bases := []int64{time.Date(2017, 3, 1, 10, 0, 0, 0, time.UTC).UnixMilli(), zeroMs}
		offsets := []int64{0, 1, -1, 0, 2}
		var events []Event
		var users, times []int64
		var converted []bool
		for ; len(data) >= 3 && len(events) < 4096; data = data[3:] {
			user := int64(data[0]%7) - 2
			var ms int64
			pick := data[1] % 16
			switch pick {
			case 0, 1:
				ms = zeroMs
			case 2:
				ms = math.MinInt64
			case 3:
				ms = math.MaxInt64
			case 4:
				ms = math.MinInt64 + 1
			case 5:
				ms = math.MaxInt64 - 1
			default:
				k := int64(data[1]>>4) % 4
				ms = bases[pick%2] + k*step + offsets[pick%5]
			}
			at := time.UnixMilli(ms).UTC()
			if pick == 0 { // a null time, which the oracle saw as the zero time
				at = time.Time{}
			}
			conv := data[2]&1 == 1
			events = append(events, Event{UserID: user, At: at, Converted: conv})
			users, times, converted = append(users, user), append(times, ms), append(converted, conv)
		}
		sessions, wantErr := s.Sessionize(events)
		got, err := s.Count(users, times, converted)
		if !errors.Is(err, wantErr) {
			t.Fatalf("Count err = %v, oracle err = %v", err, wantErr)
		}
		if want := countSessions(sessions); got != want {
			t.Fatalf("Count = %+v, oracle %+v over %d events", got, want, len(events))
		}
	})
}
