package tcp

// RTT estimation per Jacobson/Karels as implemented in the BSD stacks the
// prototype derived from (paper §4.1 cites Comer and Stevens & Wright).
// The paper highlights this machinery in Table 3: parsing a pure ACK costs
// 14 µs on the LANai largely because "of a series of multiply operations
// for the RTT estimators" done in software.

// Default timer bounds. The prototype ran on a local SAN, so the minimum
// RTO dominates behaviour; 200 ms mirrors Linux 2.4's TCP_RTO_MIN.
const (
	MinRTO     = 200 * 1000 * 1000        // 200 ms in ns
	MaxRTO     = 120 * 1000 * 1000 * 1000 // 120 s in ns
	InitialRTO = 3 * 1000 * 1000 * 1000   // 3 s (RFC 1122)
)

// RTTEstimator maintains smoothed RTT state in nanoseconds using the
// classic fixed-point shifts: srtt gains 1/8 of the error, rttvar 1/4.
type RTTEstimator struct {
	srtt    int64 // smoothed RTT, ns; 0 = no sample yet
	rttvar  int64 // mean deviation, ns
	samples int
}

// Sample folds a measured round-trip time into the estimator.
func (r *RTTEstimator) Sample(rtt int64) {
	if rtt < 0 {
		return
	}
	r.samples++
	if r.srtt == 0 {
		r.srtt = rtt
		r.rttvar = rtt / 2
		return
	}
	err := rtt - r.srtt
	r.srtt += err / 8
	if err < 0 {
		err = -err
	}
	r.rttvar += (err - r.rttvar) / 4
}

// SRTT reports the smoothed RTT in nanoseconds (0 before the first sample).
func (r *RTTEstimator) SRTT() int64 { return r.srtt }

// Samples reports how many measurements have been folded in.
func (r *RTTEstimator) Samples() int { return r.samples }

// RTO reports the current retransmission timeout: srtt + 4*rttvar clamped
// to [MinRTO, MaxRTO], or InitialRTO before any sample.
func (r *RTTEstimator) RTO() int64 {
	if r.samples == 0 {
		return InitialRTO
	}
	rto := r.srtt + 4*r.rttvar
	if rto < MinRTO {
		rto = MinRTO
	}
	if rto > MaxRTO {
		rto = MaxRTO
	}
	return rto
}

// BackedOffRTO reports the RTO after n consecutive timeouts (exponential
// backoff, Karn's algorithm), clamped to MaxRTO.
func (r *RTTEstimator) BackedOffRTO(n int) int64 {
	rto := r.RTO()
	for i := 0; i < n && rto < MaxRTO; i++ {
		rto *= 2
	}
	if rto > MaxRTO {
		rto = MaxRTO
	}
	return rto
}
