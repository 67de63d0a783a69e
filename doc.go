// Package roads is a from-scratch Go reproduction of "A Replication
// Overlay Assisted Resource Discovery Service for Federated Systems"
// (Yang, Ye, Liu — ICPP 2008): the ROADS resource-discovery service as
// live goroutine-per-server nodes, the SWORD and centralized-repository
// baselines it is evaluated against, and a harness that regenerates every
// figure of the paper's evaluation by running the live protocol in-process
// over a modelled wide-area network.
//
// The library lives under internal/ (see README.md for the architecture
// map); the runnable entry points are the commands under cmd/, the
// examples under examples/, and the per-figure benchmarks in
// bench_test.go.
package roads
