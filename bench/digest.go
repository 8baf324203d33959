package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"ctrlguard/internal/goofi"
)

// DigestFile is where seed 1's record digests live, relative to the
// bench module.
const DigestFile = "testdata/digests.json"

// encodeRecords is the canonical JSONL encoding of recs, the bytes
// goofi.WriteRecords produces.
func encodeRecords(recs []goofi.Record) ([]byte, error) {
	var buf bytes.Buffer
	if err := goofi.WriteRecords(&buf, recs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// recordsDigest is the hex SHA-256 of recs' canonical encoding.
func recordsDigest(recs []goofi.Record) (string, error) {
	b, err := encodeRecords(recs)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// LoadDigests reads a digest file: spec key → SHA-256 of its records.
func LoadDigests(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: read digests: %w", err)
	}
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("bench: parse digests %s: %w", path, err)
	}
	return m, nil
}

// seedOneSpecs lists every distinct campaign of every workload's seed-1
// operations.
func seedOneSpecs() []goofi.CampaignSpec {
	seen := make(map[string]bool)
	var out []goofi.CampaignSpec
	for _, w := range Workloads {
		for _, op := range workloadOps(w, 1) {
			for _, sp := range op {
				if k := specKey(sp); !seen[k] {
					seen[k] = true
					out = append(out, sp)
				}
			}
		}
	}
	return out
}

// WriteDigests runs every seed-1 campaign with the in-process engine and
// writes their record digests to path, so later runs can check every
// execution path against them.
func WriteDigests(ctx context.Context, path string, progress func(done, total int)) error {
	specs := seedOneSpecs()
	m := make(map[string]string, len(specs))
	for i, sp := range specs {
		recs, err := runSpec(ctx, sp, 0)
		if err != nil {
			return err
		}
		d, err := recordsDigest(recs)
		if err != nil {
			return err
		}
		m[specKey(sp)] = d
		if progress != nil {
			progress(i+1, len(specs))
		}
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runSpec runs one campaign in-process and returns its records.
func runSpec(ctx context.Context, sp goofi.CampaignSpec, workers int) ([]goofi.Record, error) {
	cfg, err := sp.Resolve()
	if err != nil {
		return nil, err
	}
	cfg.Workers = workers
	res, err := goofi.RunContext(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: campaign %s: %w", specKey(sp), err)
	}
	return res.Records, nil
}

// checker compares every campaign's records against the digest file
// and against earlier runs of the same spec in this run.
type checker struct {
	file map[string]string
	seen map[string]string
}

func newChecker(file map[string]string) *checker {
	return &checker{file: file, seen: make(map[string]string)}
}

// check validates one campaign's records; a non-nil error is a
// correctness failure.
func (c *checker) check(sp goofi.CampaignSpec, recs []goofi.Record) error {
	if len(recs) != sp.Experiments {
		return fmt.Errorf("%s: %d records, want %d", specKey(sp), len(recs), sp.Experiments)
	}
	for i, r := range recs {
		if r.ID != i {
			return fmt.Errorf("%s: record %d has id %d", specKey(sp), i, r.ID)
		}
	}
	digest, err := recordsDigest(recs)
	if err != nil {
		return err
	}
	key := specKey(sp)
	if want, ok := c.file[key]; ok && want != digest {
		return fmt.Errorf("%s: digest %s, digest file has %s", key, digest[:12], want[:12])
	}
	if want, ok := c.seen[key]; ok && want != digest {
		return fmt.Errorf("%s: digest %s differs from this run's earlier %s", key, digest[:12], want[:12])
	}
	c.seen[key] = digest
	return nil
}

// covered reports whether the digest file pins the spec.
func (c *checker) covered(sp goofi.CampaignSpec) bool {
	_, ok := c.file[specKey(sp)]
	return ok
}
