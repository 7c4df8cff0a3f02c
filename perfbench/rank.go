package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"cnnrev/internal/accel"
	"cnnrev/internal/core"
	"cnnrev/internal/dataset"
	"cnnrev/internal/nn"
	"cnnrev/internal/structrev"
)

// rankSchedules alternate in rank-candidates.
var rankSchedules = []string{"flat", "halving"}

// rankLimit is rank-candidates' latency limit for one round (a flat and a
// halving ranking): about two and a half times its 4 s on a 2-core Xeon.
const rankLimit = 10 * time.Second

// The replica below repeats RankCandidatesResult's defaults for a zero
// RankConfig. If core changes them, the replica's accuracies stop matching
// the ranking's and the probe fails.
const (
	rankClasses   = 4
	rankPerClass  = 12
	rankDepthDiv  = 16
	rankTopK      = 1
	rankLR        = 0.1
	rankBatchSize = 8
	rankClipNorm  = 1.0
)

// convnetReport builds the structure report rank-candidates ranks: the
// §3 attack on ConvNet.
func convnetReport(seed int64) (*core.StructureReport, nn.Shape, error) {
	net, err := buildTable3Victim("convnet", seed)
	if err != nil {
		return nil, nn.Shape{}, err
	}
	rep, err := core.RunStructureAttack(net, accel.Config{}, structrev.DefaultOptions(), seed)
	if err != nil {
		return nil, nn.Shape{}, err
	}
	if rep.TruthIndex < 0 {
		return nil, nn.Shape{}, fmt.Errorf("convnet: true structure not among the candidates")
	}
	return rep, net.Input, nil
}

func rankConfig(schedule string, seed int64) core.RankConfig {
	return core.RankConfig{Seed: seed, Halving: schedule == "halving"}
}

func checkRank(schedule string, res *core.RankResult, g rankGold) error {
	if len(res.Scores) != g.Candidates {
		return fmt.Errorf("%s: %d scores, want %d", schedule, len(res.Scores), g.Candidates)
	}
	if res.TotalEpochs != g.TotalEpochs[schedule] {
		return fmt.Errorf("%s: %d epochs, want %d", schedule, res.TotalEpochs, g.TotalEpochs[schedule])
	}
	if top := res.Scores[0]; top.Epochs != g.FullEpochs {
		return fmt.Errorf("%s: top-1 trained %d epochs, want %d", schedule, top.Epochs, g.FullEpochs)
	}
	for _, sc := range res.Scores {
		if sc.Err != nil || math.IsNaN(sc.Accuracy) {
			return fmt.Errorf("%s: candidate %d scored NaN (%v)", schedule, sc.Index, sc.Err)
		}
	}
	return nil
}

func recordRankGold() (rankGold, error) {
	rep, input, err := convnetReport(1)
	if err != nil {
		return rankGold{}, err
	}
	g := rankGold{Candidates: len(rep.Structures), TotalEpochs: map[string]int{}}
	for _, s := range rankSchedules {
		res := core.RankCandidatesResult(context.Background(), rep, input, rankConfig(s, 1))
		g.TotalEpochs[s] = res.TotalEpochs
		g.FullEpochs = res.Scores[0].Epochs
	}
	return g, nil
}

// rankWL is rank-candidates: one closed-loop client ranks ConvNet's
// candidates, alternating the flat and the successive-halving schedule.
type rankWL struct {
	gold  rankGold
	rng   *rand.Rand
	rep   *core.StructureReport
	input nn.Shape
	// last keeps each schedule's latest traced ranking and its seed for
	// the replica probe.
	last     map[string]*core.RankResult
	lastSeed map[string]int64
	// replicaEpochS sums the replica's Trainer.Epoch time per schedule.
	replicaEpochS map[string]float64
}

func setupRank(seed int64, _ time.Duration, g *golden) (instance, error) {
	rep, input, err := convnetReport(seed)
	if err != nil {
		return nil, err
	}
	// One untimed flat ranking starts the tensor pool and grows the heap.
	core.RankCandidatesResult(context.Background(), rep, input, rankConfig("flat", seed))
	return closedInstance{&rankWL{
		gold: g.Rank, rng: rand.New(rand.NewSource(seed)), rep: rep, input: input,
		last: map[string]*core.RankResult{}, lastSeed: map[string]int64{},
		replicaEpochS: map[string]float64{},
	}}, nil
}

func (w *rankWL) limit() time.Duration { return rankLimit }

func (w *rankWL) round(r int, tr *tracer, op int) []opResult {
	out := make([]opResult, 0, len(rankSchedules))
	for i, s := range rankSchedules {
		seed := w.rng.Int63()
		root := tr.begin("op", s, op+i, -1)
		t0 := time.Now()
		var res *core.RankResult
		tr.call("core.RankCandidatesResult", s, op+i, root, func() {
			res = core.RankCandidatesResult(context.Background(), w.rep, w.input, rankConfig(s, seed))
		})
		d := time.Since(t0)
		tr.end(root)
		if tr != nil {
			w.last[s], w.lastSeed[s] = res, seed
		}
		out = append(out, opResult{d, checkRank(s, res, w.gold)})
	}
	return out
}

// probe replays each schedule's last traced ranking one candidate at a
// time, making the calls RankCandidatesResult makes in its order, so each
// call gets a span. Every candidate's accuracy must equal the ranking's.
func (w *rankWL) probe(tr *tracer) error {
	for _, s := range rankSchedules {
		res := w.last[s]
		if res == nil {
			return fmt.Errorf("no traced %s ranking ran", s)
		}
		if err := w.replica(s, res, w.lastSeed[s], tr); err != nil {
			return fmt.Errorf("%s replica: %w", s, err)
		}
	}
	return nil
}

func (w *rankWL) replica(schedule string, res *core.RankResult, seed int64, tr *tracer) error {
	root := tr.begin("probe", "replica."+schedule, -1, -1)
	defer tr.end(root)
	in := w.input
	var ds *dataset.Set
	tr.call("dataset.Synthetic", schedule, -1, root, func() {
		testPer := rankPerClass/3 + 1
		ds = dataset.Synthetic(rankClasses, rankPerClass+testPer, in.C, in.H, in.W, seed+100)
	})
	train, test := ds.Split(rankClasses * rankPerClass)
	for _, sc := range res.Scores {
		var net *nn.Network
		var err error
		tr.call("core.Materialize", schedule, -1, root, func() {
			net, err = core.Materialize(w.rep.Analysis, &w.rep.Structures[sc.Index], in, rankClasses, rankDepthDiv)
		})
		if err != nil {
			return err
		}
		tr.call("nn.InitWeights", schedule, -1, root, func() { net.InitWeights(seed + int64(sc.Index)) })
		trainer := nn.NewTrainer(net)
		trainer.LR = rankLR
		trainer.BatchSize = rankBatchSize
		trainer.ClipNorm = rankClipNorm
		rng := rand.New(rand.NewSource(seed + 7))
		for e := 0; e < sc.Epochs; e++ {
			id := tr.begin("nn.Trainer.Epoch", schedule, -1, root)
			trainer.Epoch(train.X, train.Y, rng)
			tr.end(id)
		}
		var acc float64
		tr.call("nn.Accuracy", schedule, -1, root, func() { acc = nn.Accuracy(net, test.X, test.Y, rankTopK) })
		if acc != sc.Accuracy {
			return fmt.Errorf("candidate %d: replica accuracy %g, ranking %g", sc.Index, acc, sc.Accuracy)
		}
	}
	w.replicaEpochS[schedule] = tr.totalSeconds("nn.Trainer.Epoch", schedule)
	return nil
}

func (w *rankWL) layers(tr *tracer) map[string]float64 {
	m := map[string]float64{}
	nproc := float64(runtime.GOMAXPROCS(0))
	for _, s := range rankSchedules {
		rankS := tr.meanCall("core.RankCandidatesResult", s)
		epochs := 0
		if res := w.last[s]; res != nil {
			epochs = res.TotalEpochs
		}
		m["core.rank_s."+s] = rankS
		m["core.epochs."+s] = float64(epochs)
		if epochs > 0 {
			m["core.s_per_epoch."+s] = rankS / float64(epochs)
		}
		if rankS > 0 {
			m["core.core_util_frac."+s] = w.replicaEpochS[s] / (rankS * nproc)
		}
	}
	mean := func(name string) float64 {
		var sum float64
		n := 0
		for _, s := range rankSchedules {
			for _, sp := range tr.find(name, s) {
				sum += sp.seconds()
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	m["core.materialize_s"] = mean("core.Materialize")
	m["nn.init_s"] = mean("nn.InitWeights")
	m["nn.epoch_s"] = mean("nn.Trainer.Epoch")
	m["nn.accuracy_s"] = mean("nn.Accuracy")
	m["dataset.synthetic_s"] = mean("dataset.Synthetic")
	return m
}
