package analytics

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

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
}
