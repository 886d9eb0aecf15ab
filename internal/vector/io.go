package vector

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The on-disk formats:
//
//   - CSV: one user per line, d comma-separated non-negative integers.
//     A leading "# name=<n> category=<c>" comment line is optional.
//   - Binary: a compact little-endian format with a magic header, used by
//     cmd/csjgen for large generated datasets.

const binaryMagic = "CSJC\x01"

// WriteCSV writes the community in CSV form.
func WriteCSV(w io.Writer, c *Community) error {
	bw := bufio.NewWriter(w)
	// name= consumes the rest of the line so that names may contain spaces.
	if _, err := fmt.Fprintf(bw, "# category=%d name=%s\n", c.Category, csvEscape(c.Name)); err != nil {
		return err
	}
	var sb strings.Builder
	for _, u := range c.Users {
		sb.Reset()
		for i, v := range u {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatInt(int64(v), 10))
		}
		sb.WriteByte('\n')
		if _, err := bw.WriteString(sb.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func csvEscape(s string) string {
	return strings.NewReplacer("\n", " ", "\r", " ").Replace(s)
}

// ReadCSV parses a community written by WriteCSV. Blank lines are
// ignored; the first "# name=... category=..." comment, if present, sets
// the community metadata. Rows may be arbitrarily wide: the reader has
// no per-line token limit (bufio.Scanner's cap turned large-d profiles
// into "token too long").
func ReadCSV(r io.Reader) (*Community, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	c := &Community{Category: -1}
	line := 0
	for {
		text, rerr := br.ReadString('\n')
		if text != "" {
			line++
		}
		if trimmed := strings.TrimSpace(text); trimmed != "" {
			if strings.HasPrefix(trimmed, "#") {
				parseCSVHeader(trimmed, c)
			} else {
				fields := strings.Split(trimmed, ",")
				u := make(Vector, len(fields))
				for i, f := range fields {
					v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 32)
					if err != nil {
						return nil, fmt.Errorf("vector: csv line %d field %d: %w", line, i+1, err)
					}
					u[i] = int32(v)
				}
				c.Users = append(c.Users, u)
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, rerr
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func parseCSVHeader(text string, c *Community) {
	text = strings.TrimSpace(strings.TrimPrefix(text, "#"))
	for text != "" {
		kv := text
		// name= consumes the rest of the line (names may contain spaces).
		if i := strings.Index(text, " "); i >= 0 && !strings.HasPrefix(text, "name=") {
			kv, text = text[:i], strings.TrimSpace(text[i+1:])
		} else {
			text = ""
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		switch k {
		case "name":
			// A carriage return inside the line is not a line break
			// here, but WriteCSV writes it as a space; read it as one
			// so that what ReadCSV accepts round-trips.
			c.Name = csvEscape(v)
		case "category":
			if n, err := strconv.Atoi(v); err == nil {
				c.Category = n
			}
		}
	}
}

// WriteBinary writes the community in the compact binary format.
func WriteBinary(w io.Writer, c *Community) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	name := []byte(c.Name)
	hdr := make([]byte, 0, 16)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(name)))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(int32(c.Category)))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(c.Users)))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(c.Dim()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if _, err := bw.Write(name); err != nil {
		return err
	}
	buf := make([]byte, 4)
	for _, u := range c.Users {
		for _, v := range u {
			binary.LittleEndian.PutUint32(buf, uint32(v))
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadBinary parses a community written by WriteBinary. When the total
// input size is known (a file, an HTTP body with Content-Length), prefer
// ReadBinarySized so implausible headers are rejected up front.
func ReadBinary(r io.Reader) (*Community, error) {
	return ReadBinarySized(r, -1)
}

// ReadBinarySized parses a community written by WriteBinary, treating
// the header as untrusted: its shape is checked against the community
// limits (MaxBinaryPayloadBytes caps the claimed n*d*4 payload) and,
// when sizeHint >= 0, against the number of bytes the source can
// actually supply. Rows are then allocated incrementally as they are
// read, so memory use tracks the bytes actually consumed rather than
// the header's claim. A negative sizeHint means the total input size
// is unknown.
func ReadBinarySized(r io.Reader, sizeHint int64) (*Community, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("vector: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("vector: bad magic %q", magic)
	}
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("vector: reading header: %w", err)
	}
	nameLen := binary.LittleEndian.Uint32(hdr[0:4])
	category := int32(binary.LittleEndian.Uint32(hdr[4:8]))
	n := binary.LittleEndian.Uint32(hdr[8:12])
	d := binary.LittleEndian.Uint32(hdr[12:16])
	// The limits are Validate's, checked before anything is allocated.
	// They include d >= 1: users of zero dimensions claim a 0-byte
	// payload, so the row loop below would otherwise spin n times, CPU
	// and slice headers in proportion to the claim.
	if err := checkLimits(int(nameLen), int(category), int(n), int(d)); err != nil {
		return nil, fmt.Errorf("binary header: %w", err)
	}
	payload := int64(n) * int64(d) * 4
	if need := int64(len(binaryMagic)) + 16 + int64(nameLen) + payload; sizeHint >= 0 && sizeHint < need {
		return nil, fmt.Errorf("vector: header claims %d bytes but the source holds only %d", need, sizeHint)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("vector: reading name: %w", err)
	}
	c := &Community{Name: string(name), Category: int(category)}
	c.Users = make([]Vector, 0, min(int(n), 1024))
	buf := make([]byte, 4*d)
	for i := 0; i < int(n); i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("vector: reading user %d: %w", i, err)
		}
		u := make(Vector, d)
		for j := range u {
			u[j] = int32(binary.LittleEndian.Uint32(buf[4*j:]))
		}
		c.Users = append(c.Users, u)
	}
	// Every row was read at the header's d, so Validate's
	// first-user dimension is the header's.
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
