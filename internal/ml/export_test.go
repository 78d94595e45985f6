package ml

// ReferenceTree exposes the per-node-sort reference builder to the
// package's external tests.
var ReferenceTree = referenceTree
