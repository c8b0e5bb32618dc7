package netfront

// Version fetches the server version line.
func (c *Client) Version() (string, error) {
	if _, err := c.bw.WriteString("version\r\n"); err != nil {
		return "", err
	}
	if err := c.Flush(); err != nil {
		return "", err
	}
	return c.ReadReply()
}
