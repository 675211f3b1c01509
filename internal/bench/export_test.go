package bench

// PingIters exposes the Figure 6 ping-pong counts to the external tests,
// which rebuild each cell's configuration to compute their reference.
var PingIters = pingIters
