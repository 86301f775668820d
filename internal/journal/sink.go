package journal

import (
	"bufio"
	"os"
	"sync"
)

// Sink is where the batcher lands encoded journal bytes. Append receives
// whole record frames as they arrive (buffered; a crash may lose or tear
// them — that is the recoverable tail). Seal is the durability barrier,
// called once per group commit immediately after the seal frame is
// appended: a file sink flushes and fsyncs, so everything up to and
// including the seal survives a crash.
//
// The interface is deliberately write-only; reading a journal back is a
// separate concern (Scan, Verify, Replay operate on an io.Reader or a
// byte snapshot), which keeps test sinks hermetic.
type Sink interface {
	// Append writes one or more encoded frames. It may buffer.
	Append(p []byte) error
	// Seal makes everything appended so far durable.
	Seal() error
	// Close seals and releases the sink.
	Close() error
}

// MemSink is an in-memory sink for hermetic tests and benchmarks. It
// records the seal count and byte offsets so group-commit behaviour is
// observable without a filesystem.
type MemSink struct {
	mu    sync.Mutex
	buf   []byte
	seals int
	// sealOffsets records the byte length of the sink at each Seal, the
	// durable prefix a crash at that instant would leave behind.
	sealOffsets []int
}

// NewMemSink returns an empty in-memory sink.
func NewMemSink() *MemSink { return &MemSink{} }

// Append implements Sink.
func (s *MemSink) Append(p []byte) error {
	s.mu.Lock()
	s.buf = append(s.buf, p...)
	s.mu.Unlock()
	return nil
}

// Seal implements Sink.
func (s *MemSink) Seal() error {
	s.mu.Lock()
	s.seals++
	s.sealOffsets = append(s.sealOffsets, len(s.buf))
	s.mu.Unlock()
	return nil
}

// Close implements Sink.
func (s *MemSink) Close() error { return nil }

// Bytes returns a copy of everything appended so far.
func (s *MemSink) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf...)
}

// FileSink is the single-file segment sink: frames append through a
// buffered writer, and each seal flushes and fsyncs, so sealed batches
// are durable and a crash costs at most the unsealed tail.
type FileSink struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// OpenFileSink opens (creating if needed) path for appending journal
// bytes.
func OpenFileSink(path string) (*FileSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &FileSink{f: f, w: bufio.NewWriterSize(f, 64<<10)}, nil
}

// Append implements Sink.
func (s *FileSink) Append(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.w.Write(p)
	return err
}

// Seal implements Sink: flush the buffer and fsync the file.
func (s *FileSink) Seal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

// Close implements Sink.
func (s *FileSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}
