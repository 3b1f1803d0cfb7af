// Package threegol is a from-scratch reproduction of "3GOL:
// Power-boosting ADSL using 3G OnLoading" (CoNEXT 2013): a system that
// accelerates a residential ADSL line by onloading part of a transfer
// onto 3G-connected phones sitting on the home Wi-Fi LAN.
//
// The repository is organised as a set of substrates under internal/
// (fluid network simulator, HSPA cellular model, real-TCP link emulation,
// HLS machinery, discovery/permit/quota control planes, synthetic trace
// generators) with the paper's contribution — the multipath transfer
// scheduler and the 3GOL client/device components — layered on top.
// Binaries under cmd/ regenerate every table and figure of the paper's
// evaluation; see DESIGN.md for the per-experiment index and
// EXPERIMENTS.md for measured-versus-paper results.
//
// BenchmarkExperiments in bench_test.go runs the same table as
// cmd/3golbench (internal/experiments), one sub-benchmark per table or
// figure, and reports every row of each as a custom benchmark metric.
package threegol
