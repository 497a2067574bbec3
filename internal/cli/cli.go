// Package cli holds the plumbing the command-line tools share.
package cli

import (
	"bytes"
	"io"
	"os"
)

// WriteTo writes via f to path, with "-" meaning stdout. File output is
// buffered so a failed export never leaves a truncated file behind.
func WriteTo(path string, f func(io.Writer) error) error {
	if path == "-" {
		return f(os.Stdout)
	}
	var buf bytes.Buffer
	if err := f(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
