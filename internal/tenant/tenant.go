// Package tenant gives ctrlguardd a multi-tenant admission layer: who
// a request belongs to (API keys), how fast it may submit (token
// buckets), how much it may keep queued (quotas), and how the shared
// worker pool is divided when everyone wants it at once (a weighted
// fair-share queue).
//
// The design goal mirrors the paper's: the service must keep
// delivering acceptable service under stress. A misbehaving or merely
// enthusiastic tenant is the server's "fault"; admission control and
// fair-share scheduling are its executable assertions and best-effort
// recovery — the burst is rejected or contained, never allowed to
// starve the other tenants or wedge the daemon.
package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// Tenant is one API principal and its service envelope. The zero
// values of every limit mean "unlimited", so a config can name only
// the limits it cares about.
type Tenant struct {
	// Name identifies the tenant in job views, metrics, and the
	// journal. Required, unique.
	Name string `json:"name"`

	// Key is the API key presented in the Authorization header
	// (either raw or as "Bearer <key>"). Empty designates the
	// anonymous tenant that unauthenticated requests map to; at most
	// one tenant may have an empty key.
	Key string `json:"key,omitempty"`

	// Weight is the tenant's fair-share weight over the job queue
	// (default 1): under contention, tenants complete work in
	// proportion to their weights.
	Weight int `json:"weight,omitempty"`

	// RatePerSec is the sustained submission rate limit in requests
	// per second (0 = unlimited). Submissions beyond it are rejected
	// with 429 and a Retry-After.
	RatePerSec float64 `json:"ratePerSec,omitempty"`

	// Burst is the token-bucket depth — how many submissions may
	// arrive back-to-back before the rate limit bites (default:
	// max(1, ceil(RatePerSec))).
	Burst int `json:"burst,omitempty"`

	// MaxQueuedJobs caps how many of this tenant's jobs may sit in
	// the queue at once (0 = unlimited; running jobs do not count).
	MaxQueuedJobs int `json:"maxQueuedJobs,omitempty"`

	// MaxQueuedExperiments caps the total experiments across this
	// tenant's queued jobs (0 = unlimited).
	MaxQueuedExperiments int `json:"maxQueuedExperiments,omitempty"`

	// NoCache opts the tenant out of content-addressed result reuse:
	// its submissions always execute, never served from (but still
	// contributing to) the shared memoization store.
	NoCache bool `json:"noCache,omitempty"`
}

// FairWeight is the tenant's scheduling weight, never below 1.
func (t Tenant) FairWeight() int {
	if t.Weight <= 0 {
		return 1
	}
	return t.Weight
}

// DefaultName is the tenant every request maps to on a server with no
// tenant configuration — the open, single-tenant mode ctrlguardd
// started with.
const DefaultName = "public"

// Default is the open-server tenant: no key, no limits.
func Default() Tenant { return Tenant{Name: DefaultName, Weight: 1} }

// ErrUnauthorized reports a request whose API key matched no tenant.
var ErrUnauthorized = errors.New("tenant: unknown or missing API key")

// Registry resolves Authorization headers to tenants. An empty
// registry (no tenants configured) is "open": every request resolves
// to Default(). A non-empty registry requires a matching key, except
// that a configured tenant with an empty Key catches unauthenticated
// requests.
type Registry struct {
	byKey  map[string]Tenant
	byName map[string]Tenant
	anon   *Tenant
}

// NewRegistry validates the tenant set (unique names and keys, at most
// one anonymous tenant) and builds a registry over it.
func NewRegistry(tenants []Tenant) (*Registry, error) {
	r := &Registry{
		byKey:  make(map[string]Tenant, len(tenants)),
		byName: make(map[string]Tenant, len(tenants)),
	}
	for _, t := range tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("tenant: a tenant needs a name (key %q)", t.Key)
		}
		if _, dup := r.byName[t.Name]; dup {
			return nil, fmt.Errorf("tenant: duplicate tenant name %q", t.Name)
		}
		if t.RatePerSec < 0 || t.MaxQueuedJobs < 0 || t.MaxQueuedExperiments < 0 || t.Burst < 0 {
			return nil, fmt.Errorf("tenant: %s has a negative limit", t.Name)
		}
		r.byName[t.Name] = t
		if t.Key == "" {
			if r.anon != nil {
				return nil, fmt.Errorf("tenant: both %s and %s have an empty key; at most one anonymous tenant is allowed", r.anon.Name, t.Name)
			}
			anon := t
			r.anon = &anon
			continue
		}
		if _, dup := r.byKey[t.Key]; dup {
			return nil, fmt.Errorf("tenant: duplicate API key (tenant %s)", t.Name)
		}
		r.byKey[t.Key] = t
	}
	return r, nil
}

// fileLimit bounds the size of a tenant configuration file.
const fileLimit = 1 << 20

// LoadFile reads a JSON tenant configuration: an array of Tenant
// objects, in a file of at most fileLimit bytes (1 MiB).
func LoadFile(path string) ([]Tenant, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: read config %s: %w", path, err)
	}
	defer f.Close()
	b, err := io.ReadAll(io.LimitReader(f, fileLimit+1))
	if err != nil {
		return nil, fmt.Errorf("tenant: read config %s: %w", path, err)
	}
	if len(b) > fileLimit {
		return nil, fmt.Errorf("tenant: config %s exceeds %d bytes", path, fileLimit)
	}
	var tenants []Tenant
	if err := json.Unmarshal(b, &tenants); err != nil {
		return nil, fmt.Errorf("tenant: parse config %s: %w", path, err)
	}
	if _, err := NewRegistry(tenants); err != nil {
		return nil, err
	}
	return tenants, nil
}

// Open reports whether the registry has no tenants configured and thus
// accepts every request as the default tenant.
func (r *Registry) Open() bool {
	return r == nil || (len(r.byName) == 0 && r.anon == nil)
}

// Resolve maps an Authorization header value ("<key>" or
// "Bearer <key>") to a tenant. On an open registry every request —
// authenticated or not — resolves to Default(); otherwise a missing or
// unknown key is ErrUnauthorized (unless an anonymous tenant catches
// the empty key).
func (r *Registry) Resolve(authorization string) (Tenant, error) {
	if r.Open() {
		return Default(), nil
	}
	key := strings.TrimSpace(authorization)
	if rest, ok := strings.CutPrefix(key, "Bearer "); ok {
		key = strings.TrimSpace(rest)
	}
	if key == "" {
		if r.anon != nil {
			return *r.anon, nil
		}
		return Tenant{}, ErrUnauthorized
	}
	t, ok := r.byKey[key]
	if !ok {
		return Tenant{}, ErrUnauthorized
	}
	return t, nil
}

// Lookup finds a tenant by name — the journal-restore path, where only
// the name survived the restart.
func (r *Registry) Lookup(name string) (Tenant, bool) {
	if r.Open() && name == DefaultName {
		return Default(), true
	}
	if r == nil {
		return Tenant{}, false
	}
	t, ok := r.byName[name]
	return t, ok
}

// Usage is one tenant's live queue occupancy — the state its quotas
// are enforced against. It is reconstructed from the journal on
// restart, so a crash never resets accounting.
type Usage struct {
	QueuedJobs        int `json:"queuedJobs"`
	QueuedExperiments int `json:"queuedExperiments"`
}

// Zero reports whether the usage is empty.
func (u Usage) Zero() bool { return u == Usage{} }
