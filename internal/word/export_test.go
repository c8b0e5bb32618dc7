package word

// Signature returns the content's 8-bit bucket signature (SignatureOf
// its hash).
func (c Content) Signature() uint8 { return SignatureOf(c.Hash()) }
