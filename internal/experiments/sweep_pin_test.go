package experiments

import "testing"

// The LeNet noise sweep and defense matrix, pinned field by field (every
// field but Elapsed). The drop-0.1 point truncates two of its three seeds
// at the 20,000-structure cap, so the pin covers the prefix the pipeline
// keeps on a cap overflow as well as the failure and defeat paths.

func TestNoiseSweepLeNetPinned(t *testing.T) {
	want := []NoiseSweepPoint{
		{DropRate: 0, InterferenceRate: 0, Seeds: 3, TruthRetained: 3, MeanCandidates: 159.33333333333334, MeanSegments: 4, MeanWriteHole: 0.009378663540445475},
		{DropRate: 0.005, InterferenceRate: 0, Seeds: 3, TruthRetained: 3, MeanCandidates: 357, MeanSegments: 4, MeanWriteHole: 0.012504884720593967},
		{DropRate: 0.01, InterferenceRate: 0, Seeds: 3, TruthRetained: 3, MeanCandidates: 1129.3333333333333, MeanSegments: 4, MeanWriteHole: 0.01875732708089095},
		{DropRate: 0.02, InterferenceRate: 0, Seeds: 3, TruthRetained: 3, MeanCandidates: 3177, MeanSegments: 4, MeanWriteHole: 0.028135990621336465},
		{DropRate: 0.05, InterferenceRate: 0, Seeds: 3, TruthRetained: 3, MeanCandidates: 5839, MeanSegments: 4, MeanWriteHole: 0.050019538882375904},
		{DropRate: 0.1, InterferenceRate: 0, Seeds: 3, TruthRetained: 2, MeanCandidates: 16360, MeanSegments: 4, MeanWriteHole: 0.09707487511455215, Truncated: 2},
		{DropRate: 0, InterferenceRate: 0.05, Seeds: 3, TruthRetained: 3, MeanCandidates: 27, MeanSegments: 4},
		{DropRate: 0, InterferenceRate: 0.25, Seeds: 3, TruthRetained: 3, MeanCandidates: 27, MeanSegments: 4},
	}
	got, err := NoiseSweep([]string{"lenet"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d points, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		g.Elapsed = 0
		w.Network = "lenet"
		if g != w {
			t.Errorf("point %d:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

func TestDefenseMatrixLeNetPinned(t *testing.T) {
	const dummyBW, padBW, rerandBW, fuseBW = 1.463386727688787, 1.4007437070938216, 1.0606407322654463, 0.9393592677345538
	const oramBW, oramLat = 88.07551487414187, 543.8322110608235
	want := []DefenseMatrixRow{
		{Defense: "none", Mode: "strict", Segments: 4, Candidates: 27, TruthFound: true, BandwidthOverhead: 1, LatencyOverhead: 1},
		{Defense: "none", Mode: "tolerant", Segments: 4, Candidates: 27, TruthFound: true, BandwidthOverhead: 1, LatencyOverhead: 1},
		{Defense: "dummy", Mode: "strict", Segments: 9, BandwidthOverhead: dummyBW, LatencyOverhead: 1},
		{Defense: "dummy", Mode: "tolerant", Segments: 8, BandwidthOverhead: dummyBW, LatencyOverhead: 1},
		{Defense: "pad", Mode: "strict", Defeated: true, BandwidthOverhead: padBW, LatencyOverhead: 1},
		{Defense: "pad", Mode: "tolerant", Defeated: true, BandwidthOverhead: padBW, LatencyOverhead: 1},
		{Defense: "rerand", Mode: "strict", Segments: 6, BandwidthOverhead: rerandBW, LatencyOverhead: 1},
		{Defense: "rerand", Mode: "tolerant", Segments: 5, BandwidthOverhead: rerandBW, LatencyOverhead: 1},
		{Defense: "fuse", Mode: "strict", Segments: 4, BandwidthOverhead: fuseBW, LatencyOverhead: 1},
		{Defense: "fuse", Mode: "tolerant", Segments: 4, BandwidthOverhead: fuseBW, LatencyOverhead: 1},
		{Defense: "oram", Mode: "strict", Defeated: true, BandwidthOverhead: oramBW, LatencyOverhead: oramLat},
		{Defense: "oram", Mode: "tolerant", Defeated: true, BandwidthOverhead: oramBW, LatencyOverhead: oramLat},
	}
	got, err := DefenseMatrix([]string{"lenet"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		g.Elapsed = 0
		w.Network = "lenet"
		if g != w {
			t.Errorf("row %d:\n got %+v\nwant %+v", i, g, w)
		}
	}
}
