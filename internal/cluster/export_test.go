package cluster

// ClusterPointsReference exposes clusterPointsReference to the external
// test package, whose trace-tag test drives the AMR driver (which
// imports this package).
var ClusterPointsReference = clusterPointsReference

// PointsOf exposes pointsOf the same way.
var PointsOf = pointsOf
