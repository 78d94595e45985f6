package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"sparseadapt/internal/matrix"
)

// The structure classes inputs are drawn from: no locality (uniform),
// power-law rows and columns (R-MAT) and diagonal locality (banded).
var structures = []string{"uniform", "rmat", "banded"}

// genMatrix draws a dim×dim matrix of the given structure with about nnz
// nonzeros. R-MAT needs a power-of-two dimension, so dim rounds up for it.
func genMatrix(rng *rand.Rand, structure string, dim, nnz int) *matrix.COO {
	switch structure {
	case "rmat":
		d := 1
		for d < dim {
			d <<= 1
		}
		return matrix.RMATDefault(rng, d, nnz)
	case "banded":
		return matrix.Banded(rng, dim, nnz, max(4, nnz/dim*2))
	default:
		return matrix.Uniform(rng, dim, dim, nnz)
	}
}

// shortValues rounds m's values to multiples of 1/8, which print in a few
// digits, so uploaded bodies stay small. The simulated work depends only
// on the sparsity structure.
func shortValues(m *matrix.COO) *matrix.COO {
	for i, v := range m.V {
		m.V[i] = math.Round(v*8) / 8
	}
	return m
}

// marketText renders m as a MatrixMarket coordinate body, the form the
// daemon and the CLI take matrices in.
func marketText(m *matrix.COO) string {
	var b strings.Builder
	if err := matrix.WriteMatrixMarket(&b, m); err != nil {
		panic(fmt.Sprintf("rendering MatrixMarket: %v", err)) // writes to a strings.Builder cannot fail
	}
	return b.String()
}

// seeded returns a generator for one named input stream of seed, so each
// workload part draws from its own stream and adding a part elsewhere
// leaves the others' inputs unchanged.
func seeded(seed int64, stream string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range stream {
		h ^= int64(c)
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}
