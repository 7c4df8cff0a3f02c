package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// golden.json holds the program's outputs at the commit that introduced the
// benchmark, printed by `perfbench -record-golden`. Every operation is
// checked against it: a change that alters an attack's result shows as a
// failed operation.
//
//go:embed golden.json
var goldenJSON []byte

type golden struct {
	// Structure is keyed by Table 3 victim. With zero pruning off the
	// trace depends only on shapes and configuration, so the values do not
	// depend on the victim's weights or input.
	Structure map[string]structureObs `json:"structure"`
	Rank      rankGold                `json:"rank"`
	// Weights is keyed by weight-attack case.
	Weights map[string]weightsGold `json:"weights"`
}

type rankGold struct {
	// Candidates is the ConvNet report's candidate count.
	Candidates int `json:"candidates"`
	// FullEpochs is the per-candidate budget the top-1 must reach.
	FullEpochs int `json:"full_epochs"`
	// TotalEpochs is keyed by schedule: flat or halving.
	TotalEpochs map[string]int `json:"total_epochs"`
}

type weightsGold struct {
	Queries int `json:"queries"`
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// recordGoldenValues computes every reference value from the current
// program.
func recordGoldenValues() (*golden, error) {
	g := &golden{Structure: map[string]structureObs{}, Weights: map[string]weightsGold{}}
	for _, v := range table3Victims {
		obs, err := observeStructure(v, 1, newTracer(), 0)
		if err != nil {
			return nil, err
		}
		g.Structure[v] = obs
	}
	rg, err := recordRankGold()
	if err != nil {
		return nil, err
	}
	g.Rank = rg
	for _, c := range weightCases {
		q, err := recordWeightsQueries(c)
		if err != nil {
			return nil, err
		}
		g.Weights[c] = weightsGold{Queries: q}
	}
	return g, nil
}
