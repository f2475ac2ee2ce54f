package bench

import "testing"

// TestRunFleetSmall runs a miniature sweep of the fleet benchmark:
// every workload mix must complete cleanly (no failures, no
// evictions) with every tenant's slice counter visibly nonzero.
func TestRunFleetSmall(t *testing.T) {
	for _, workload := range []string{"mixed", "pipes"} {
		p := FleetParams{
			Tenants:  []int{4},
			Shards:   2,
			Workload: workload,
			Scale:    1,
		}
		res, err := RunFleet(p)
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if len(res.Points) != 1 {
			t.Fatalf("%s: %d points, want 1", workload, len(res.Points))
		}
		pt := res.Points[0]
		for _, arm := range []FleetArm{pt.Single, pt.Multi} {
			if arm.Failed != 0 || arm.Evictions != 0 {
				t.Errorf("%s shards=%d: failed=%d evictions=%d",
					workload, arm.Shards, arm.Failed, arm.Evictions)
			}
			if arm.Throughput <= 0 {
				t.Errorf("%s shards=%d: throughput %v", workload, arm.Shards, arm.Throughput)
			}
			if arm.P50 <= 0 || arm.P999 < arm.P50 {
				t.Errorf("%s shards=%d: p50=%v p999=%v", workload, arm.Shards, arm.P50, arm.P999)
			}
			if arm.MinTenantSlices <= 0 {
				t.Errorf("%s shards=%d: min tenant slices %d, want > 0",
					workload, arm.Shards, arm.MinTenantSlices)
			}
		}
		if got := FormatFleet(res); got == "" {
			t.Errorf("%s: empty format", workload)
		}
	}
}
