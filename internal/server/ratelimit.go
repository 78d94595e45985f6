package server

import (
	"net"
	"sync"
	"time"

	"sparseadapt/internal/tenant"
)

// rateLimiter is the per-client admission throttle: one token bucket per
// client key (the request's remote IP), refilled continuously at rate
// tokens/second up to burst. Buckets idle for more than an hour are
// pruned, so the map stays bounded by the active client set.
type rateLimiter struct {
	rate  float64 // tokens per second; <= 0 disables limiting
	burst float64

	mu      sync.Mutex
	buckets map[string]*tenant.Bucket
	sweep   time.Time
}

func newRateLimiter(rate float64, burst int) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{rate: rate, burst: float64(burst), buckets: map[string]*tenant.Bucket{}}
}

// clientKey reduces a RemoteAddr to its host part, so all connections from
// one client share a bucket regardless of ephemeral port.
func clientKey(remoteAddr string) string {
	if host, _, err := net.SplitHostPort(remoteAddr); err == nil {
		return host
	}
	return remoteAddr
}

// allow consumes one token from the client's bucket. When the bucket is
// empty it reports false and how long until the next token accrues — the
// Retry-After hint.
func (rl *rateLimiter) allow(client string, now time.Time) (bool, time.Duration) {
	if rl == nil || rl.rate <= 0 {
		return true, 0
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if now.Sub(rl.sweep) > time.Hour {
		for k, b := range rl.buckets {
			if b.Idle(now) > time.Hour {
				delete(rl.buckets, k)
			}
		}
		rl.sweep = now
	}
	b := rl.buckets[client]
	if b == nil {
		b = &tenant.Bucket{}
		rl.buckets[client] = b
	}
	return b.Take(rl.rate, rl.burst, now)
}
