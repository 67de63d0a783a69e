// Package loadgen computes server placements: the parent of every server in
// a complete or spine-deepened fan-out tree, in the index order
// live.ClusterConfig.JoinVia attaches them. The canonical benchmark (bench/)
// builds its federations from it.
package loadgen
