package snapshot

// EncodeCell is the encoding half of SaveSystem, for the external tests:
// it joins the write in flight, which reads c's buffer, then writes c's
// file image, with the System container system writes, into that buffer
// and returns it, without touching the file.
func EncodeCell(c *Cell, system func(*Encoder) error) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writer.Wait()
	return c.image(&c.buf, system)
}
