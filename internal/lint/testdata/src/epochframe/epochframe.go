package epochframe

const seedEpoch uint64 = 0

func appendHeader(dst []byte, msgType byte, reqID, epoch uint64) []byte {
	return append(dst, msgType, byte(reqID), byte(epoch))
}

func admit(epoch uint64) bool { return epoch > 0 }

func mintZero() []byte {
	return appendHeader(nil, 1, 7, 0) // want `literal-zero epoch passed to appendHeader`
}

func admitZero() bool {
	return admit(0) // want `literal-zero epoch passed to admit`
}

func mintSeed() []byte {
	return appendHeader(nil, 1, 7, seedEpoch) // ok: a named constant documents the seed context
}

func mintThreaded(epoch uint64) []byte {
	return appendHeader(nil, 1, 7, epoch) // ok: the real epoch is threaded through
}

func zerosElsewhere() []byte {
	return appendHeader(nil, 0, 0, 1) // ok: zeros in non-epoch positions
}

type request struct {
	id    uint64
	epoch uint64
}

func literalZero() request {
	return request{id: 7, epoch: 0} // want `literal-zero epoch in a composite literal`
}

func assignZero(r *request) {
	r.epoch = 0 // want `literal-zero epoch assigned to epoch`
}

func literalSeed() *request {
	return &request{id: 0, epoch: seedEpoch} // ok: named constant; zero in a non-epoch field
}

func literalThreaded(epoch uint64) request {
	r := request{epoch: epoch} // ok: threaded
	r.epoch = epoch + 1        // ok: not a literal
	return r
}

func mapKeyNamedEpoch() map[string]int {
	epoch := "epoch"
	return map[string]int{epoch: 0} // ok: a map key, not a struct field
}
