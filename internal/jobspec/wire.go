package jobspec

// NodeJob asks a ppm-node session to run its share of one job. A -serve
// node reads newline-delimited NodeJob JSON on stdin until EOF; any
// other launch runs the one job its command line describes. Either way
// the node answers on stdout with dist.NodeReply lines.
type NodeJob struct {
	// ID correlates replies with jobs; opaque to the node.
	ID string `json:"id"`
	// Spec is the job. Its Nodes must match the fleet the node was
	// launched into; its wire-level fields are ignored (those were fixed
	// when the fleet's engines connected).
	Spec Spec `json:"spec"`
}
