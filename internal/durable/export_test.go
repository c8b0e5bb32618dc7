package durable

// setDiscard is the allocation-pin test hook: appended frames are
// dropped at encode time so the measured path is the encode alone.
func (d *DB) setDiscard(on bool) {
	d.lw.mu.Lock()
	d.lw.discard = on
	d.lw.mu.Unlock()
}

// FaultPointsCrossed reports how many fault points this process has
// crossed while DURABLE_FAULT_COUNT is set.
func FaultPointsCrossed() int64 { return faultCrossed.Load() }
