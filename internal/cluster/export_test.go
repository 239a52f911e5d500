package cluster

// ClusterPointsReference exposes clusterPointsReference to the external
// test package, whose trace-tag test drives the AMR driver (which
// imports this package).
var ClusterPointsReference = clusterPointsReference
