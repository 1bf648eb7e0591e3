package service

// ratelimit.go implements the per-tenant token bucket that guards admission:
// each tenant owns a bucket with a configured burst capacity refilled at a
// steady rate, so one chatty tenant cannot monopolise the submission queue.

import "time"

// TenantConfig sets a tenant's admission budget. The zero value disables rate
// limiting for the tenant (every submission passes the bucket).
type TenantConfig struct {
	// Burst is the bucket capacity: the number of submissions a tenant may
	// make back-to-back before the refill rate governs. <= 0 disables
	// limiting for the tenant.
	Burst int
	// RefillPerSec is the steady-state admission rate in tokens per second.
	// With Burst > 0 and RefillPerSec <= 0 the bucket never refills: the
	// tenant gets Burst submissions total.
	RefillPerSec float64
}

// limited reports whether the config actually constrains admission.
func (tc TenantConfig) limited() bool { return tc.Burst > 0 }

// bucket is one tenant's token bucket. Callers hold the service mutex, so the
// bucket itself is unsynchronised.
type bucket struct {
	cfg    TenantConfig
	tokens float64
	last   time.Time
}

func newBucket(cfg TenantConfig, now time.Time) *bucket {
	return &bucket{cfg: cfg, tokens: float64(cfg.Burst), last: now}
}

// allow consumes one token if available, refilling for the elapsed time first.
func (b *bucket) allow(now time.Time) bool {
	if !b.cfg.limited() {
		return true
	}
	if now.After(b.last) {
		b.tokens += now.Sub(b.last).Seconds() * b.cfg.RefillPerSec
		if max := float64(b.cfg.Burst); b.tokens > max {
			b.tokens = max
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
