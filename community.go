package csj

import (
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/opencsj/csj/internal/vector"
)

// Vector is a d-dimensional user profile: one non-negative aggregate
// preference counter per category.
type Vector = []int32

// Community is a brand page and its subscribers' profiles: Name
// identifies it, Category is its home-category dimension or -1 when
// unknown (informational only), and Users holds one profile per
// subscriber, all of the same dimensionality. Its methods are Size,
// Dim, Clone (a deep copy into one fresh backing array, which stores
// take on ingest) and Validate (non-empty, dimensionally consistent,
// no negative counters).
type Community = vector.Community

// Orient returns the pair ordered for CSJ: the less-followed community
// first (B), the more-followed second (A). Ties keep the input order.
func Orient(x, y *Community) (b, a *Community) {
	if x.Size() <= y.Size() {
		return x, y
	}
	return y, x
}

// Sentinel errors re-exported from the data model.
var (
	// ErrSizeConstraint reports a violated ceil(|A|/2) <= |B| <= |A|
	// precondition.
	ErrSizeConstraint = vector.ErrSizeConstraint
	// ErrDimensionMismatch reports communities or users of different
	// dimensionality.
	ErrDimensionMismatch = vector.ErrDimensionMismatch
	// ErrEmptyCommunity reports an empty community.
	ErrEmptyCommunity = vector.ErrEmptyCommunity
)

// ErrUnknownMethod reports an unrecognized method name.
var ErrUnknownMethod = errors.New("csj: unknown method")

// ReadCommunityCSV parses a community from CSV (one user per line,
// comma-separated counters, optional "# category=N name=..." header).
func ReadCommunityCSV(r io.Reader) (*Community, error) {
	return vector.ReadCSV(r)
}

// WriteCommunityCSV writes the community in the CSV format understood
// by ReadCommunityCSV.
func WriteCommunityCSV(w io.Writer, c *Community) error {
	return vector.WriteCSV(w, c)
}

// ReadCommunityBinary parses a community from the compact binary format.
func ReadCommunityBinary(r io.Reader) (*Community, error) {
	return vector.ReadBinary(r)
}

// WriteCommunityBinary writes the community in the compact binary
// format understood by ReadCommunityBinary.
func WriteCommunityBinary(w io.Writer, c *Community) error {
	return vector.WriteBinary(w, c)
}

// LoadCommunity reads a community file, selecting the format by
// extension: ".csv" for CSV, anything else for binary.
func LoadCommunity(path string) (*Community, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if isCSVPath(path) {
		return ReadCommunityCSV(f)
	}
	return ReadCommunityBinary(f)
}

// SaveCommunity writes a community file, selecting the format by
// extension like LoadCommunity.
func SaveCommunity(path string, c *Community) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	if isCSVPath(path) {
		werr = WriteCommunityCSV(f, c)
	} else {
		werr = WriteCommunityBinary(f, c)
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("csj: saving %s: %w", path, werr)
	}
	return nil
}

func isCSVPath(path string) bool {
	return len(path) >= 4 && path[len(path)-4:] == ".csv"
}
