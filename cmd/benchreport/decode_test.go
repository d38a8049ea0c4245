package main

import "testing"

func TestParseBenchExtraMetrics(t *testing.T) {
	out := `goos: linux
BenchmarkDecodeChunkParallel/codec=flate-8   	     50	  2000000 ns/op	 350.00 MB/s	  122.60 disk-B/rec	 3000000 records/s	 100 B/op	 5 allocs/op
BenchmarkDecodeChunkSeq/codec=raw-8  	 100	  1000000 ns/op	  46.70 disk-B/rec	 7000000 records/s	 90 B/op	 4 allocs/op
PASS
`
	bs := parseBench("./internal/ingest", out, 8)
	if len(bs) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(bs))
	}
	b := bs[0]
	if b.Name != "BenchmarkDecodeChunkParallel/codec=flate" {
		t.Fatalf("name = %q", b.Name)
	}
	if b.NsPerOp != 2000000 || b.BPerOp != 100 || b.Allocs != 5 {
		t.Errorf("standard units misparsed: %+v", b)
	}
	if got := b.Extra["records/s"]; got != 3000000 {
		t.Errorf("records/s = %v, want 3000000", got)
	}
	if got := b.Extra["disk-B/rec"]; got != 122.60 {
		t.Errorf("disk-B/rec = %v, want 122.60", got)
	}
	if _, ok := b.Extra["MB/s"]; ok {
		t.Error("MB/s captured; it duplicates ns/op+SetBytes and should be skipped")
	}
	if got := bs[1].Name; got != "BenchmarkDecodeChunkSeq/codec=raw" {
		t.Errorf("sub-benchmark name = %q (GOMAXPROCS suffix not trimmed?)", got)
	}
}

// TestTrimProcSuffix pins the GOMAXPROCS suffix rule: go test appends
// -N only when N != 1, so a sub-benchmark's own trailing number must
// survive at 1 and only the run's N is trimmed at 2.
func TestTrimProcSuffix(t *testing.T) {
	at1 := `BenchmarkPredictTopKOrders/order-1   	 500	  2100 ns/op
BenchmarkPredictTopKOrders/order-2   	 500	  3400 ns/op
BenchmarkPredictTopKOrders/order-3   	 500	  4100 ns/op
BenchmarkGenerate   	 100	  11963 ns/op
`
	at2 := `BenchmarkPredictTopKOrders/order-1-2   	 500	  2100 ns/op
BenchmarkPredictTopKOrders/order-2-2   	 500	  3400 ns/op
BenchmarkPredictTopKOrders/order-3-2   	 500	  4100 ns/op
BenchmarkGenerate-2   	 100	  11963 ns/op
`
	want := []string{"BenchmarkPredictTopKOrders/order-1", "BenchmarkPredictTopKOrders/order-2",
		"BenchmarkPredictTopKOrders/order-3", "BenchmarkGenerate"}
	for procs, out := range map[int]string{1: at1, 2: at2} {
		bs := parseBench("./internal/ngram", out, procs)
		if len(bs) != len(want) {
			t.Fatalf("procs=%d: parsed %d benchmarks, want %d", procs, len(bs), len(want))
		}
		for i, b := range bs {
			if b.Name != want[i] {
				t.Errorf("procs=%d: name %q, want %q", procs, b.Name, want[i])
			}
		}
	}
}
