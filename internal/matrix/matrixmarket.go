package matrix

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// MatrixMarket I/O. The paper's real-world inputs come from SuiteSparse
// and SNAP, which distribute matrices in the MatrixMarket coordinate
// format; this reader/writer lets users substitute the bundled synthetic
// stand-ins with the genuine files when they have them.
//
// Supported: `%%MatrixMarket matrix coordinate <real|integer|pattern>
// <general|symmetric|skew-symmetric>`. Pattern entries get value 1;
// symmetric entries are mirrored; skew-symmetric entries are mirrored with
// negated value.

// MaxDim is the largest row or column count a MatrixMarket body may
// declare. A compressed form allocates a pointer array of one int per row
// or column before it reads a single entry, so a short body declaring a
// huge dimension would otherwise ask for any amount of memory: at
// 1<<24 = 16,777,216 that array takes 128 MiB. The cap is 730× the largest
// dataset entry (R11, at 23,000). It bounds what a declared size can make
// the host allocate, not the work a body of entries can ask for.
const MaxDim = 1 << 24

// errTooLarge marks a body whose declared dimensions exceed MaxDim.
var errTooLarge = errors.New("exceed the dimension limit")

// maxLine is the longest line, newline excluded, the reader accepts: one
// byte less than the 1 MiB bufio.Scanner buffer it was first written with.
const maxLine = 1<<20 - 1

// ReadMatrixMarket parses a MatrixMarket coordinate stream into COO form.
// It reads the whole stream, then parses it with ParseMatrixMarket.
func ReadMatrixMarket(r io.Reader) (*COO, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseMatrixMarket(string(b))
}

// ParseMatrixMarket parses a MatrixMarket coordinate body into COO form in
// one pass over s. Lines split as bufio.ScanLines splits them (one
// trailing '\r' dropped) and fail with bufio.ErrTooLong past maxLine;
// entries split as strings.Fields splits them and parse with strconv.
// Dimensions above MaxDim are refused before anything is allocated.
func ParseMatrixMarket(s string) (*COO, error) {
	ls := lineScanner{rest: s}
	text, ok := ls.next()
	if !ok {
		return nil, fmt.Errorf("matrix: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(text))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("matrix: not a MatrixMarket header: %q", text)
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("matrix: unsupported format %q (only coordinate)", header[2])
	}
	field := header[3]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("matrix: unsupported field %q", field)
	}
	sym := header[4]
	switch sym {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("matrix: unsupported symmetry %q", sym)
	}

	// Skip comments, read the size line.
	var rows, cols, nnz int
	for text, ok := ls.next(); ok; text, ok = ls.next() {
		line := strings.TrimSpace(text)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		var ok bool
		if rows, cols, nnz, ok = plainSize(line); ok {
			break
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("matrix: bad size line %q: %w", line, err)
		}
		break
	}
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("matrix: bad dimensions %dx%d", rows, cols)
	}
	if rows > MaxDim || cols > MaxDim {
		return nil, fmt.Errorf("matrix: dimensions %dx%d %w of %d", rows, cols, errTooLarge, MaxDim)
	}

	// An entry line takes at least four bytes ("1 1\n"), so the rest of
	// the body bounds how many entries it can hold, whatever it declares.
	n := max(0, min(nnz, (len(ls.rest)+1)/4))
	out := &COO{Rows: rows, Cols: cols, R: make([]int, 0, n), C: make([]int, 0, n), V: make([]float64, 0, n)}
	read := 0
	// The scanner advances before the count is checked, so the line after
	// the last entry is scanned too, and a too-long one fails the body.
	for text, ok := ls.next(); ok && read < nnz; text, ok = ls.next() {
		f, nf := entryFields(text)
		if nf == 0 || f[0][0] == '%' {
			continue
		}
		if nf < 2 {
			return nil, fmt.Errorf("matrix: bad entry %q", strings.TrimSpace(text))
		}
		r1, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("matrix: bad row in %q: %w", strings.TrimSpace(text), err)
		}
		c1, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("matrix: bad col in %q: %w", strings.TrimSpace(text), err)
		}
		v := 1.0
		if field != "pattern" {
			if nf < 3 {
				return nil, fmt.Errorf("matrix: missing value in %q", strings.TrimSpace(text))
			}
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("matrix: bad value in %q: %w", strings.TrimSpace(text), err)
			}
		}
		ri, ci := r1-1, c1-1 // MatrixMarket is 1-indexed
		if ri < 0 || ri >= rows || ci < 0 || ci >= cols {
			return nil, fmt.Errorf("matrix: entry (%d,%d) outside %dx%d", r1, c1, rows, cols)
		}
		out.Add(ri, ci, v)
		switch sym {
		case "symmetric":
			if ri != ci {
				out.Add(ci, ri, v)
			}
		case "skew-symmetric":
			if ri != ci {
				out.Add(ci, ri, -v)
			}
		}
		read++
	}
	if ls.err != nil {
		return nil, ls.err
	}
	if read < nnz {
		return nil, fmt.Errorf("matrix: expected %d entries, got %d", nnz, read)
	}
	return out, nil
}

// plainSize reads a size line whose first three fields are plain decimal
// (ASCII digits only, no sign, no leading zero but "0", at most 18 digits)
// with the entry splitter and strconv.Atoi, as fmt.Sscan reads them. Any
// other size line goes to fmt.Sscan, which accepts signs, base prefixes
// and underscores; keeping fmt, and the sync.Pool behind its scan state,
// off the common path keeps a parse's allocations the same from call to
// call.
func plainSize(line string) (rows, cols, nnz int, ok bool) {
	f, n := entryFields(line)
	if n < 3 {
		return 0, 0, 0, false
	}
	var v [3]int
	for i, s := range f {
		if len(s) > 18 || (s[0] == '0' && len(s) > 1) {
			return 0, 0, 0, false
		}
		for k := 0; k < len(s); k++ {
			if s[k] < '0' || s[k] > '9' {
				return 0, 0, 0, false
			}
		}
		v[i], _ = strconv.Atoi(s) // plain decimal of at most 18 digits: cannot fail
	}
	return v[0], v[1], v[2], true
}

// lineScanner walks a body line by line without copying it.
type lineScanner struct {
	rest string
	err  error // bufio.ErrTooLong once a line exceeds maxLine
}

// next returns the next line without its newline and one trailing '\r',
// and false at the end of the body or at a line longer than maxLine.
func (l *lineScanner) next() (string, bool) {
	if l.err != nil || l.rest == "" {
		return "", false
	}
	line := l.rest
	if i := strings.IndexByte(line, '\n'); i >= 0 {
		line, l.rest = line[:i], line[i+1:]
	} else {
		l.rest = ""
	}
	if len(line) > maxLine {
		l.err = bufio.ErrTooLong
		return "", false
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, true
}

// byteClass sorts bytes for entryFields: ASCII white space as
// strings.Fields and strings.TrimSpace see it, any byte of a multi-byte
// UTF-8 sequence, and 0 for every other byte, which belongs to a field.
var byteClass = func() (t [256]uint8) {
	for _, c := range "\t\n\v\f\r " {
		t[c] = classSpace
	}
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = classNonASCII
	}
	return t
}()

const (
	classSpace = 1 + iota
	classNonASCII
)

// entryFields returns the first three fields of line as strings.Fields
// splits it, and how many there are, capped at three. A line with a
// non-ASCII byte, which may hold Unicode white space, goes through
// strings.Fields itself.
func entryFields(line string) (f [3]string, n int) {
	for i := 0; i < len(line); {
		switch byteClass[line[i]] {
		case classSpace:
			i++
			continue
		case classNonASCII:
			return firstFields(line)
		}
		j := i + 1
		for ; j < len(line); j++ {
			if c := byteClass[line[j]]; c == classSpace {
				break
			} else if c == classNonASCII {
				return firstFields(line)
			}
		}
		f[n] = line[i:j]
		n++
		if n == len(f) {
			return f, n
		}
		i = j
	}
	return f, n
}

// firstFields is entryFields by way of strings.Fields.
func firstFields(line string) (f [3]string, n int) {
	return f, copy(f[:], strings.Fields(line))
}

// WriteMatrixMarket writes the matrix in general real coordinate format.
func WriteMatrixMarket(w io.Writer, m *COO) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real general"); err != nil {
		return err
	}
	// Merge duplicates so the declared NNZ is exact.
	csr := m.ToCSR()
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", csr.Rows, csr.Cols, csr.NNZ()); err != nil {
		return err
	}
	for r := 0; r < csr.Rows; r++ {
		cols, vals := csr.Row(r)
		for i, c := range cols {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", r+1, c+1, vals[i]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
