package flightrec

import (
	"bytes"
	"os"
	"path/filepath"

	"debugdet/internal/trace"
	"debugdet/internal/wire"
)

// Hooks for the external tests that build hostile spill directories.

// FeedLogName is the feed log's file name inside a spill directory.
const FeedLogName = feedLogName

// RecordCheckpointed records a scenario under the perfect model with a
// checkpoint every interval events.
var RecordCheckpointed = recordCheckpointed

// FeedLogBytes encodes events as a feed log.
func FeedLogBytes(events []trace.Event) []byte {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	writeFeedHeader(w)
	for i := range events {
		writeFeedEntry(w, &events[i])
	}
	w.Finish()
	return buf.Bytes()
}

// ManifestName is the manifest's file name inside a spill directory.
const ManifestName = manifestName

// SetFeedCount rewrites the feed entry count a spill directory's manifest
// declares.
func SetFeedCount(dir string, n uint64) error {
	return editManifest(dir, func(man *manifest) { man.FeedCount = n })
}

// SetFeedBytes rewrites the feed log byte count a spill directory's
// manifest declares.
func SetFeedBytes(dir string, n int64) error {
	return editManifest(dir, func(man *manifest) { man.FeedBytes = n })
}

// editManifest rewrites a spill directory's manifest through edit.
func editManifest(dir string, edit func(*manifest)) error {
	path := filepath.Join(dir, manifestName)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	man, err := decodeManifest(f)
	f.Close()
	if err != nil {
		return err
	}
	edit(man)
	var buf bytes.Buffer
	if err := encodeManifest(&buf, man); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// ManifestBytes encodes a manifest that declares feedBytes of feed log,
// lists segs and holds nothing else.
func ManifestBytes(feedBytes int64, segs []SegmentInfo) []byte {
	var buf bytes.Buffer
	encodeManifest(&buf, &manifest{FeedBytes: feedBytes, Segments: segs})
	return buf.Bytes()
}

// DecodeManifest decodes a manifest and returns its error.
func DecodeManifest(data []byte) error {
	_, err := decodeManifest(bytes.NewReader(data))
	return err
}
