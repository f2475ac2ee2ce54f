package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunOpsOverhead(t *testing.T) {
	res, err := RunOpsOverhead(Config{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Off.Wall <= 0 || res.On.Wall <= 0 {
		t.Fatalf("arm walls = %v / %v", res.Off.Wall, res.On.Wall)
	}
	if res.Off.FlightEvents != 0 {
		t.Errorf("flight-off arm recorded %d events", res.Off.FlightEvents)
	}
	if res.On.FlightEvents == 0 {
		t.Error("flight-on arm recorded no events")
	}
	out := FormatOpsOverhead(res)
	for _, want := range []string{"flight-off", "flight-on", "overhead:"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH_ops.json")
	if err := WriteReport(path, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded OpsOverheadResult
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("report JSON invalid: %v", err)
	}
	if decoded.On.FlightEvents != res.On.FlightEvents {
		t.Errorf("round-trip lost flight events: %d != %d",
			decoded.On.FlightEvents, res.On.FlightEvents)
	}
}
