package cnnrev_test

import (
	"context"
	"fmt"

	"cnnrev"
)

// ExampleRunStructureAttack reverse engineers a LeNet's structure from one
// traced inference.
func ExampleRunStructureAttack() {
	victim := cnnrev.LeNet(10)
	victim.InitWeights(1)
	rep, err := cnnrev.RunStructureAttack(victim, cnnrev.DefaultAccelConfig(), cnnrev.DefaultSolverOptions(), 2)
	if err != nil {
		panic(err)
	}
	fmt.Println("layers recovered:", len(rep.Analysis.Segments))
	fmt.Println("victim structure among candidates:", rep.TruthIndex >= 0)
	// Output:
	// layers recovered: 4
	// victim structure among candidates: true
}

// ExampleRunWeightAttack recovers weight/bias ratios through the
// zero-pruning write-count side channel.
func ExampleRunWeightAttack() {
	victim := cnnrev.PrunedConv1(2, 0.25, 5)
	rep, err := cnnrev.RunWeightAttack(victim, cnnrev.AccelConfig{})
	if err != nil {
		panic(err)
	}
	fmt.Println("within paper precision:", rep.MaxRatioErr < 1.0/1024)
	fmt.Println("zero weights misclassified:", rep.ZeroErrors)
	// Output:
	// within paper precision: true
	// zero weights misclassified: 0
}

// ExampleObfuscateTrace shows Path ORAM defeating the structure attack.
func ExampleObfuscateTrace() {
	victim := cnnrev.LeNet(10)
	victim.InitWeights(1)
	tr, _ := cnnrev.CaptureTrace(victim, cnnrev.DefaultAccelConfig(), 2)
	obf, stats, err := cnnrev.ObfuscateTrace(tr, cnnrev.ORAMConfig{Seed: 7})
	if err != nil {
		panic(err)
	}
	fmt.Println("overhead exceeds 50x:", stats.Overhead() > 50)
	_, attackErr := cnnrev.AttackTrace(context.Background(), obf, victim.Input, 10, 4,
		cnnrev.OutputStationary, cnnrev.DefaultSolverOptions(), cnnrev.StructureAttackSpec{}, nil)
	fmt.Println("attack defeated:", attackErr != nil)
	// Output:
	// overhead exceeds 50x: true
	// attack defeated: true
}
