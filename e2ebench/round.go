package main

import (
	"sync"

	"flashflow/internal/coord"
)

// roundRec collects what the seams saw during one round. The wrappers
// file into it concurrently; the round loop reads it after the round.
type roundRec struct {
	round  int
	traced bool
	cols   []*colRound
	merge  mergeRound
	// mergeStore is the merge node's store activity.
	mergeStore storeStats

	// start is the first RelaySource call; end is when the /v3bw GET
	// returned the round's merged body; cycleEnd is when, in addition,
	// every coordinator had finished the round (checkpoint included).
	start, end, cycleEnd int64
	getStart             int64
	body                 []byte
	bodyLen              int
	getErr               error

	// published counts the relays the round measured that the body lists;
	// acc holds their accuracies against the configured capacities.
	published int
	acc       []float64
}

func newRoundRec(round, columns int, traced bool) *roundRec {
	rr := &roundRec{round: round, traced: traced, cols: make([]*colRound, columns)}
	for i := range rr.cols {
		rr.cols[i] = &colRound{accepted: make(map[string]bool)}
	}
	return rr
}

// storeStats returns the store record for column col (-1: merge node).
func (rr *roundRec) storeStats(col int) *storeStats {
	if col < 0 {
		return &rr.mergeStore
	}
	return &rr.cols[col].store
}

// colRound is one column's part of a round.
type colRound struct {
	mu sync.Mutex
	// Phase boundaries: RelaySource call, first slot start, last slot
	// end, OnSnapshot entry and exit.
	srcAt, firstSlot, lastSlotEnd, snapAt, snapEnd int64

	slots, cancelled, incomplete int
	requestedSecs, dataSecs      int
	slotWall                     int64
	bytes                        float64
	// slotWalls and overheads are per wire slot attempt, in seconds;
	// slotIvs are every slot attempt's interval, kept in traced rounds.
	slotWalls, overheads []float64
	slotIvs              []interval
	dials                []float64
	// accepted maps each relay measured this round to whether its last
	// attempt met the §4.2 acceptance condition.
	accepted map[string]bool

	store storeStats

	renderNs, callNs, handlerNs int64
	callID                      uint64
	body                        []byte
	submitErr                   error

	rep coord.RoundReport
	// measured is len(rep.Estimates); verification drops the estimates,
	// the accepted map and the submitted body so a run's records do not
	// hold the population in memory.
	measured int
}

func (cr *colRound) setReport(r coord.RoundReport) {
	cr.mu.Lock()
	cr.rep = r
	cr.mu.Unlock()
}

// storeStats is one store's activity during a round.
type storeStats struct {
	mu                     sync.Mutex
	appends, records       int
	checkpoints            int
	appendNs, checkpointNs int64
}

// mergeRound is the merge node's part of a round.
type mergeRound struct {
	mu            sync.Mutex
	decodeNs      int64
	submits       []float64
	publishes     []float64
	mergeSubmitNs int64
	rejected      int
	// full is the round of the last merge whose views all came from one
	// round.
	full int
}
