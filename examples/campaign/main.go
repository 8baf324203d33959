// Campaign: a miniature GOOFI fault-injection campaign, end to end.
// Injects a few hundred uniformly sampled bit-flips into the simulated
// CPU while it runs Algorithm I, logs every experiment to a JSONL
// database, reloads it, and prints the outcome distribution in the
// paper's table layout.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"ctrlguard/internal/goofi"
	"ctrlguard/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

func run() error {
	const n = 500
	done := 0
	res, err := goofi.Run(goofi.Config{
		Variant:     workload.AlgorithmI,
		Experiments: n,
		Seed:        1,
		OnRecord: func(goofi.Record) {
			done++
			if done%100 == 0 {
				fmt.Printf("  %d/%d experiments done\n", done, n)
			}
		},
	})
	if err != nil {
		return err
	}

	// Log the campaign database and read it back, the way the paper's
	// analysis phase queries the GOOFI database.
	path := filepath.Join(os.TempDir(), "ctrlguard-campaign.jsonl")
	if err := goofi.SaveRecords(path, res.Records); err != nil {
		return err
	}
	records, err := goofi.LoadRecords(path)
	if err != nil {
		return err
	}
	fmt.Printf("campaign database: %s (%d records)\n\n", path, len(records))

	a := goofi.Analyze(records)
	fmt.Println(a.RenderRegionTable("Mini-campaign results (Algorithm I)"))
	fmt.Println(a.Summary())

	fmt.Println("sample records:")
	for _, r := range records[:3] {
		fmt.Printf("  #%d flip %s/%s bit %d at instruction %d -> %s %s\n",
			r.ID, r.Region, r.Element, r.Bit, r.At, r.Outcome, r.Mechanism)
	}
	return nil
}
