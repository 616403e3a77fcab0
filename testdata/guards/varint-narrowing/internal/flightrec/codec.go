package flightrec

func decodeManifest(rd *wire.Reader, m *manifest) {
	m.FeedBytes = int64(rd.Uvarint())
}
