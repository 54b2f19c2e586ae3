package snapshot

// EncodeCell is the encoding half of SaveSystem, for the external tests:
// it writes c's file image, with the System container system writes,
// into c's buffer and returns it, without touching the file.
func EncodeCell(c *Cell, system func(*Encoder) error) ([]byte, error) {
	return c.image(&c.buf, system)
}
