// Package mtx reads and writes the MatrixMarket coordinate format, the
// interchange format of the SuiteSparse Matrix Collection the paper
// draws its corpus from. Supported variants: coordinate storage with
// real/integer/pattern fields and general/symmetric symmetry — enough to
// load any collection graph and to round-trip the synthetic corpus.
package mtx

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"maskedspgemm/internal/sparse"
)

// header mirrors the %%MatrixMarket banner fields we support.
type header struct {
	object   string // matrix
	format   string // coordinate
	field    string // real | integer | pattern
	symmetry string // general | symmetric | skew-symmetric
}

func parseHeader(line string) (header, error) {
	fields := strings.Fields(strings.ToLower(line))
	if len(fields) != 5 || fields[0] != "%%matrixmarket" {
		return header{}, fmt.Errorf("mtx: malformed banner %q", line)
	}
	h := header{object: fields[1], format: fields[2], field: fields[3], symmetry: fields[4]}
	if h.object != "matrix" {
		return h, fmt.Errorf("mtx: unsupported object %q", h.object)
	}
	if h.format != "coordinate" {
		return h, fmt.Errorf("mtx: unsupported format %q (only coordinate)", h.format)
	}
	switch h.field {
	case "real", "integer", "pattern":
	default:
		return h, fmt.Errorf("mtx: unsupported field %q", h.field)
	}
	switch h.symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return h, fmt.Errorf("mtx: unsupported symmetry %q", h.symmetry)
	}
	return h, nil
}

// maxReadDim bounds the dimensions a text stream may declare: indices
// are stored as int32, so anything above MaxInt32 would silently
// truncate on conversion. The allocation hint is separately clamped so
// a lying header cannot force a huge up-front allocation.
const (
	maxReadDim = math.MaxInt32
	maxCapHint = 1 << 20
	maxErrLine = 80 // quoted-line truncation in error messages
)

// trunc shortens a hostile line before it is quoted in an error.
func trunc(s string) string {
	if len(s) > maxErrLine {
		return s[:maxErrLine] + "..."
	}
	return s
}

// Read parses a MatrixMarket coordinate stream into CSR. Symmetric
// inputs are expanded (both triangles stored); pattern inputs get unit
// values. Duplicate entries sum, matching common collection tooling,
// and they sum in file order (a symmetric entry's mirror counts where
// its line is), so a file reads to the same bits every time.
//
// Read is safe on hostile input: every structural violation — bad
// banner, malformed or implausible size line (non-positive or >2³¹-1
// dimensions, negative or over-capacity nnz), out-of-range or
// non-integer indices, too few or trailing entries — is reported as an
// error carrying the 1-based line number, never a panic or an
// unbounded allocation.
func Read(r io.Reader) (*sparse.CSR[float64], error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	scan := func() bool {
		if sc.Scan() {
			lineNo++
			return true
		}
		return false
	}

	if !scan() {
		return nil, fmt.Errorf("mtx: empty input")
	}
	h, err := parseHeader(sc.Text())
	if err != nil {
		return nil, err
	}

	// Skip comments, find the size line. The size line must have exactly
	// three integer fields: rows, cols, nnz.
	var rows, cols, nnz int64
	sized := false
	for scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("mtx: line %d: bad size line %q: want \"rows cols nnz\"", lineNo, trunc(line))
		}
		dims := make([]int64, 3)
		for k, f := range fields {
			dims[k], err = strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("mtx: line %d: bad size field %q: %w", lineNo, trunc(f), err)
			}
		}
		rows, cols, nnz = dims[0], dims[1], dims[2]
		sized = true
		break
	}
	if !sized {
		return nil, fmt.Errorf("mtx: missing size line")
	}
	if rows <= 0 || cols <= 0 || rows > maxReadDim || cols > maxReadDim {
		return nil, fmt.Errorf("mtx: implausible dimensions %dx%d (want 1..%d)", rows, cols, int64(maxReadDim))
	}
	if nnz < 0 || nnz > rows*cols {
		return nil, fmt.Errorf("mtx: implausible nnz %d for %dx%d matrix", nnz, rows, cols)
	}

	// The hint only pre-sizes buffers; COO grows by append, so clamping
	// it cannot lose entries — it just stops a lying header from forcing
	// a giant allocation before any data has been seen.
	capHint := nnz
	if h.symmetry != "general" {
		capHint *= 2
	}
	if capHint > maxCapHint {
		capHint = maxCapHint
	}
	coo := sparse.NewCOO[float64](int(rows), int(cols), capHint)
	var count int64
	for scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if count >= nnz {
			return nil, fmt.Errorf("mtx: line %d: trailing entry %q after the %d promised by the header", lineNo, trunc(line), nnz)
		}
		fields := strings.Fields(line)
		want := 3
		if h.field == "pattern" {
			want = 2
		}
		if len(fields) < want {
			return nil, fmt.Errorf("mtx: line %d: bad entry line %q", lineNo, trunc(line))
		}
		i, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("mtx: line %d: bad row index %q: %w", lineNo, trunc(fields[0]), err)
		}
		j, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("mtx: line %d: bad column index %q: %w", lineNo, trunc(fields[1]), err)
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("mtx: line %d: entry (%d,%d) out of bounds %dx%d", lineNo, i, j, rows, cols)
		}
		v := 1.0
		if h.field != "pattern" {
			v, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("mtx: line %d: bad value %q: %w", lineNo, trunc(fields[2]), err)
			}
		}
		ri, cj := sparse.Index(i-1), sparse.Index(j-1)
		coo.Add(ri, cj, v)
		if h.symmetry != "general" && ri != cj {
			if h.symmetry == "skew-symmetric" {
				coo.Add(cj, ri, -v)
			} else {
				coo.Add(cj, ri, v)
			}
		}
		count++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mtx: line %d: read: %w", lineNo, err)
	}
	if count != nnz {
		return nil, fmt.Errorf("mtx: got %d entries, header promised %d", count, nnz)
	}
	return coo.ToCSR(), nil
}

// Write emits m as a general real coordinate MatrixMarket stream.
func Write(w io.Writer, m *sparse.CSR[float64]) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real general")
	fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			fmt.Fprintf(bw, "%d %d %g\n", i+1, int(j)+1, vals[k])
		}
	}
	return bw.Flush()
}

// WritePattern emits only the structure of m as a pattern MatrixMarket
// stream — the natural serialization for unweighted graphs.
func WritePattern(w io.Writer, m *sparse.CSR[float64]) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate pattern general")
	fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ())
	for i := 0; i < m.Rows; i++ {
		for _, j := range m.RowCols(i) {
			fmt.Fprintf(bw, "%d %d\n", i+1, int(j)+1)
		}
	}
	return bw.Flush()
}
