package amstrack_test

import (
	"fmt"

	"amstrack"
)

// Track the self-join size of a small multiset and compare with the exact
// value. With a single distinct value the sketch is exact, which makes the
// example deterministic.
func ExampleNewTugOfWar() {
	sketch, err := amstrack.NewTugOfWar(amstrack.Config{S1: 16, S2: 4, Seed: 1})
	if err != nil {
		panic(err)
	}
	for i := 0; i < 10; i++ {
		sketch.Insert(42)
	}
	fmt.Println(sketch.Estimate()) // 10 copies → SJ = 10² = 100
	if err := sketch.Delete(42); err != nil {
		panic(err)
	}
	fmt.Println(sketch.Estimate()) // deletion is exact: 9² = 81
	// Output:
	// 100
	// 81
}

// Estimate a join size from two per-relation signatures. Relations holding
// only one shared value give the exact product.
func ExampleEstimateJoin() {
	fam, err := amstrack.NewSignatureFamily(8, 7)
	if err != nil {
		panic(err)
	}
	orders, items := fam.NewSignature(), fam.NewSignature()
	for i := 0; i < 6; i++ {
		orders.Insert(1001) // six orders for customer 1001
	}
	for i := 0; i < 4; i++ {
		items.Insert(1001) // four items for customer 1001
	}
	est, err := amstrack.EstimateJoin(orders, items)
	if err != nil {
		panic(err)
	}
	fmt.Println(est)
	// Output:
	// 24
}

// Recover the parameter of an exponentially distributed attribute from
// its tracked self-join size (Fact 1.2).
func ExampleExponentialParameter() {
	n := int64(1000)
	selfJoin := 500000.0 // SJ = n²(a−1)/(a+1) with a = 3
	a, err := amstrack.ExponentialParameter(n, selfJoin)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%.1f\n", a)
	// Output:
	// 3.0
}

// An engine holds one signature per relation and answers any pairwise
// join-size question at planning time.
func ExampleNewEngine() {
	eng, err := amstrack.NewEngine(amstrack.EngineOptions{SignatureWords: 8, Seed: 5})
	if err != nil {
		panic(err)
	}
	f, _ := eng.Define("orders")
	g, _ := eng.Define("lineitems")
	for i := 0; i < 3; i++ {
		f.Insert(9)
	}
	for i := 0; i < 5; i++ {
		g.Insert(9)
	}
	est, err := eng.EstimateJoin("orders", "lineitems")
	if err != nil {
		panic(err)
	}
	fmt.Println(est.Estimate)
	// Output:
	// 15
}

// Three-way chain join estimation (the paper's §5 future-work scenario):
// F ⋈_a G ⋈_b H from three independent signatures.
func ExampleEstimateChainJoin() {
	fam, err := amstrack.NewChainFamily(8, 3)
	if err != nil {
		panic(err)
	}
	f, _ := fam.NewEndSignature(0)
	h, _ := fam.NewEndSignature(1)
	g := fam.NewMiddleSignature()
	for i := 0; i < 3; i++ {
		f.Insert(1) // three F-tuples with a = 1
	}
	for i := 0; i < 5; i++ {
		g.Insert(1, 2) // five G-tuples with (a, b) = (1, 2)
	}
	for i := 0; i < 7; i++ {
		h.Insert(2) // seven H-tuples with b = 2
	}
	est, err := amstrack.EstimateChainJoin(f, g, h)
	if err != nil {
		panic(err)
	}
	fmt.Println(est) // 3 · 5 · 7
	// Output:
	// 105
}
