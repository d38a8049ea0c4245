package periodicity

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/flows"
)

// mixedFleet is a handful of objects polled by mostly periodic clients
// and two objects with only random clients, enough to keep two workers
// busy.
func mixedFleet() []*flows.ObjectFlow {
	var objs []*flows.ObjectFlow
	for o := uint64(0); o < 6; o++ {
		var clients []*flows.ClientFlow
		for c := uint64(0); c < 5; c++ {
			id := o*10 + c
			if o >= 4 || c == 0 {
				clients = append(clients, randomClient(id, 40))
			} else {
				clients = append(clients, periodicClient(id, 30, time.Duration(30+10*o)*time.Second, time.Second, c%2 == 0, false))
			}
		}
		objs = append(objs, buildFlow(fmt.Sprintf("https://x.com/obj/%d", o), clients))
	}
	return objs
}

// TestAnalyzeSameAtAnyGOMAXPROCS checks that per-flow streams make the
// whole result, detector counters included, independent of how objects
// are scheduled across workers.
func TestAnalyzeSameAtAnyGOMAXPROCS(t *testing.T) {
	objs := mixedFleet()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	one := Analyze(objs, 5000, fastConfig())
	runtime.GOMAXPROCS(2)
	two := Analyze(objs, 5000, fastConfig())
	if !reflect.DeepEqual(one, two) {
		t.Errorf("GOMAXPROCS=1 and 2 differ:\n%+v\n%+v", one, two)
	}
	if len(one.PeriodicObjects()) == 0 || len(one.PeriodicObjects()) == len(one.Objects) {
		t.Errorf("%d of %d objects periodic; the fleet should mix both", len(one.PeriodicObjects()), len(one.Objects))
	}
}

// TestAnalyzeCountsDetectorWork checks the detector counters against
// the calls Analyze must make: one per object flow, plus one per client
// of each periodic object.
func TestAnalyzeCountsDetectorWork(t *testing.T) {
	cfg := fastConfig()
	res := Analyze(mixedFleet(), 5000, cfg)
	var calls int64
	for _, o := range res.Objects {
		calls++
		if o.ObjectPeriod > 0 {
			calls += int64(o.TotalClients)
		}
	}
	if res.DetectCalls != calls {
		t.Errorf("DetectCalls = %d, want %d", res.DetectCalls, calls)
	}
	perms := int64(cfg.Detector.Permutations)
	if res.Shuffles > calls*perms || res.Shuffles < (calls-res.EarlyStops)*perms {
		t.Errorf("Shuffles = %d for %d calls with %d early stops", res.Shuffles, calls, res.EarlyStops)
	}
	if res.EarlyStops == 0 || res.EarlyStops >= calls {
		t.Errorf("EarlyStops = %d of %d calls; random objects should stop early, periodic ones not", res.EarlyStops, calls)
	}
}
