package main

import (
	"fmt"
	"os"
)

// smokeOps is how many ops smoke mode runs per workload.
const smokeOps = 3

// runSmoke runs a few ops of every workload at seed 0 and proves each
// check counts an op as failed when its expected value is wrong.
func runSmoke(work string) error {
	for _, name := range workloadNames() {
		w := newWorkload(name)
		e := &env{seed: 0, work: work}
		if err := w.setup(e); err != nil {
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		for i := 0; i < smokeOps; i++ {
			if err := w.op(e, i); err != nil {
				return fmt.Errorf("%s op %d: %w", name, i, err)
			}
		}
		w.corrupt()
		if err := w.op(e, smokeOps); err == nil {
			return fmt.Errorf("%s: op %d passed its check against a wrong expected value", name, smokeOps)
		}
		if n := w.finish(e); n != 0 {
			return fmt.Errorf("%s: %d end-of-run checks failed", name, n)
		}
		fmt.Fprintf(os.Stderr, "smoke %s: %d ops passed; a wrong expected value failed op %d\n", name, smokeOps, smokeOps)
	}
	fmt.Fprintln(os.Stderr, "smoke: ok")
	return nil
}
