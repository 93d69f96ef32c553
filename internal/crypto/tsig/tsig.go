// Package tsig implements the threshold signature scheme behind ammBoost's
// TSQC (threshold-signature quorum certificate) sync authentication: a
// (2f+2)-of-(3f+2) scheme with a joint Feldman-style DKG, partial signing,
// Lagrange share combination, and public verification against the
// committee's group key recorded in the mainchain bank.
//
// The paper uses BLS over BN256 (pairing-based); the Go standard library has
// no pairing-friendly curve, so this package realizes the same linear
// structure over P-256: a partial signature is σᵢ = skᵢ·h·G with
// h = H(m) mod q, combined via Lagrange interpolation in the exponent to
// σ = sk·h·G, verified as σ == h·PK. Every protocol mechanic is faithful
// (key sharing, share verification, threshold combination, public
// verification); only unforgeability is weaker because the hash-to-point
// has a known discrete log — irrelevant to the performance and correctness
// behaviour this reproduction measures, and gas for verification is charged
// at the paper's BN256 precompile prices.
package tsig

import (
	"crypto/elliptic"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Errors returned by the scheme.
var (
	ErrBadShare        = errors.New("tsig: share fails commitment check")
	ErrNotEnoughShares = errors.New("tsig: not enough partial signatures")
	ErrInvalid         = errors.New("tsig: signature verification failed")
	ErrDuplicateIndex  = errors.New("tsig: duplicate share index")
)

var curve = elliptic.P256()

// Point is an elliptic-curve point (affine coordinates; nil, nil is the
// identity).
type Point struct {
	X, Y *big.Int
}

// IsIdentity reports whether p is the point at infinity.
func (p Point) IsIdentity() bool { return p.X == nil }

// Equal reports whether two points are the same.
func (p Point) Equal(q Point) bool {
	if p.IsIdentity() || q.IsIdentity() {
		return p.IsIdentity() == q.IsIdentity()
	}
	return p.X.Cmp(q.X) == 0 && p.Y.Cmp(q.Y) == 0
}

// Bytes returns a 64-byte encoding (X || Y, zero-padded).
func (p Point) Bytes() []byte {
	out := make([]byte, 64)
	if p.IsIdentity() {
		return out
	}
	p.X.FillBytes(out[:32])
	p.Y.FillBytes(out[32:])
	return out
}

func addPoints(p, q Point) Point {
	if p.IsIdentity() {
		return q
	}
	if q.IsIdentity() {
		return p
	}
	x, y := curve.Add(p.X, p.Y, q.X, q.Y)
	if x.Sign() == 0 && y.Sign() == 0 {
		return Point{}
	}
	return Point{X: x, Y: y}
}

func scalarBase(k *big.Int) Point {
	if k.Sign() == 0 {
		return Point{}
	}
	x, y := curve.ScalarBaseMult(k.Bytes())
	return Point{X: x, Y: y}
}

func scalarMult(p Point, k *big.Int) Point {
	if p.IsIdentity() || k.Sign() == 0 {
		return Point{}
	}
	x, y := curve.ScalarMult(p.X, p.Y, k.Bytes())
	return Point{X: x, Y: y}
}

// hashToScalar maps a message to a nonzero scalar mod the curve order.
func hashToScalar(msg []byte) *big.Int {
	h := sha256.Sum256(msg)
	k := new(big.Int).SetBytes(h[:])
	k.Mod(k, curve.Params().N)
	if k.Sign() == 0 {
		k.SetInt64(1)
	}
	return k
}

// Share is one participant's secret share. Index is 1-based (the share is
// the dealer polynomial evaluated at Index).
type Share struct {
	Index int
	Value *big.Int
}

// Dealing is the output of a single dealer in the DKG: one share per
// participant plus Feldman commitments to the polynomial coefficients.
type Dealing struct {
	Shares      []Share
	Commitments []Point // Commitments[k] = coeff_k * G
}

// Deal splits a fresh random secret into n shares with threshold t
// (any t shares reconstruct; t-1 reveal nothing), publishing Feldman
// commitments for share verification.
func Deal(random io.Reader, t, n int) (*Dealing, error) {
	if t < 1 || t > n {
		return nil, fmt.Errorf("tsig: invalid threshold %d of %d", t, n)
	}
	q := curve.Params().N
	coeffs := make([]*big.Int, t)
	for i := range coeffs {
		c, err := randScalar(random, q)
		if err != nil {
			return nil, err
		}
		coeffs[i] = c
	}
	d := &Dealing{
		Shares:      make([]Share, n),
		Commitments: make([]Point, t),
	}
	for k, c := range coeffs {
		d.Commitments[k] = scalarBase(c)
	}
	for i := 1; i <= n; i++ {
		d.Shares[i-1] = Share{Index: i, Value: evalPoly(coeffs, int64(i), q)}
	}
	return d, nil
}

func randScalar(random io.Reader, q *big.Int) (*big.Int, error) {
	buf := make([]byte, 40) // oversample to make mod bias negligible
	if _, err := io.ReadFull(random, buf); err != nil {
		return nil, fmt.Errorf("tsig: rand: %w", err)
	}
	k := new(big.Int).SetBytes(buf)
	return k.Mod(k, q), nil
}

func evalPoly(coeffs []*big.Int, x int64, q *big.Int) *big.Int {
	// Horner evaluation.
	acc := new(big.Int)
	bx := big.NewInt(x)
	for k := len(coeffs) - 1; k >= 0; k-- {
		acc.Mul(acc, bx)
		acc.Add(acc, coeffs[k])
		acc.Mod(acc, q)
	}
	return acc
}

// VerifyShare checks a share against the dealer's Feldman commitments:
// share·G == Σ x^k · C_k.
func VerifyShare(share Share, commitments []Point) error {
	q := curve.Params().N
	lhs := scalarBase(share.Value)
	rhs := Point{}
	xPow := big.NewInt(1)
	bx := big.NewInt(int64(share.Index))
	for _, c := range commitments {
		rhs = addPoints(rhs, scalarMult(c, xPow))
		xPow = new(big.Int).Mul(xPow, bx)
		xPow.Mod(xPow, q)
	}
	if !lhs.Equal(rhs) {
		return ErrBadShare
	}
	return nil
}

// GroupKey is the committee verification key (vk_c in the paper), recorded
// on the bank to authenticate Sync calls.
type GroupKey struct {
	PK        Point
	Threshold int
	N         int
}

// Bytes serializes the group key point.
func (g GroupKey) Bytes() []byte { return g.PK.Bytes() }

// DKGResult is one participant's view after the joint DKG.
type DKGResult struct {
	Share Share
	Group GroupKey
}

// RunDKG executes a joint Feldman DKG among n participants with threshold
// t: every participant deals, shares are verified against the dealer
// commitments, and each participant's final share is the sum of the shares
// addressed to it. The group key is the sum of the dealers' constant-term
// commitments. The committee runs this at the start of its epoch to derive
// vk_c (registered on the bank by the previous committee's Sync).
func RunDKG(random io.Reader, t, n int) ([]DKGResult, error) {
	dealings := make([]*Dealing, n)
	for j := 0; j < n; j++ {
		d, err := Deal(random, t, n)
		if err != nil {
			return nil, err
		}
		dealings[j] = d
	}
	q := curve.Params().N
	group := Point{}
	for _, d := range dealings {
		group = addPoints(group, d.Commitments[0])
	}
	results := make([]DKGResult, n)
	for i := 0; i < n; i++ {
		sum := new(big.Int)
		for _, d := range dealings {
			sh := d.Shares[i]
			if err := VerifyShare(sh, d.Commitments); err != nil {
				return nil, err
			}
			sum.Add(sum, sh.Value)
		}
		sum.Mod(sum, q)
		results[i] = DKGResult{
			Share: Share{Index: i + 1, Value: sum},
			Group: GroupKey{PK: group, Threshold: t, N: n},
		}
	}
	return results, nil
}

// PartialSig is a single member's signature share.
type PartialSig struct {
	Index int
	Sig   Point
}

// PartialSign produces a member's signature share over msg.
func PartialSign(share Share, msg []byte) PartialSig {
	q := curve.Params().N
	h := hashToScalar(msg)
	k := new(big.Int).Mul(h, share.Value)
	k.Mod(k, q)
	return PartialSig{Index: share.Index, Sig: scalarBase(k)}
}

// VerifyPartial checks a signature share against the member's public share
// commitment pkShare = skᵢ·G.
func VerifyPartial(pkShare Point, msg []byte, ps PartialSig) error {
	h := hashToScalar(msg)
	if !ps.Sig.Equal(scalarMult(pkShare, h)) {
		return ErrInvalid
	}
	return nil
}

// Combine aggregates at least g.Threshold partial signatures into the group
// signature via Lagrange interpolation at zero.
func Combine(g GroupKey, partials []PartialSig) (Point, error) {
	if len(partials) < g.Threshold {
		return Point{}, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughShares, len(partials), g.Threshold)
	}
	use := partials[:g.Threshold]
	q := curve.Params().N
	seen := make(map[int]bool, len(use))
	sig := Point{}
	for i, ps := range use {
		if seen[ps.Index] {
			return Point{}, ErrDuplicateIndex
		}
		seen[ps.Index] = true
		lambda := lagrangeAtZero(use, i, q)
		sig = addPoints(sig, scalarMult(ps.Sig, lambda))
	}
	return sig, nil
}

// lagrangeAtZero computes λ_i = Π_{j≠i} x_j / (x_j - x_i) mod q.
func lagrangeAtZero(ps []PartialSig, i int, q *big.Int) *big.Int {
	num := big.NewInt(1)
	den := big.NewInt(1)
	xi := big.NewInt(int64(ps[i].Index))
	for j, pj := range ps {
		if j == i {
			continue
		}
		xj := big.NewInt(int64(pj.Index))
		num.Mul(num, xj)
		num.Mod(num, q)
		d := new(big.Int).Sub(xj, xi)
		d.Mod(d, q)
		den.Mul(den, d)
		den.Mod(den, q)
	}
	den.ModInverse(den, q)
	num.Mul(num, den)
	return num.Mod(num, q)
}

// Verify checks the combined signature against the group key:
// σ == H(m)·PK. The bank performs this check (charging BN256 pairing gas
// in the cost model) before accepting a Sync.
func Verify(g GroupKey, msg []byte, sig Point) error {
	h := hashToScalar(msg)
	if !sig.Equal(scalarMult(g.PK, h)) {
		return ErrInvalid
	}
	return nil
}

// PublicShare returns the public commitment skᵢ·G for a share, used to
// verify partial signatures.
func PublicShare(share Share) Point {
	return scalarBase(share.Value)
}

// ErrBadPointEncoding rejects a byte slice that does not decode to a
// curve point (durable-store recovery re-verifies persisted signatures,
// so corrupt encodings must surface as errors, not panics).
var ErrBadPointEncoding = errors.New("tsig: malformed point encoding")

// PointFromBytes decodes the 64-byte X||Y encoding produced by
// Point.Bytes. All-zero bytes decode to the identity; any other encoding
// must be a point on the curve.
func PointFromBytes(b []byte) (Point, error) {
	if len(b) != 64 {
		return Point{}, fmt.Errorf("%w: %d bytes, want 64", ErrBadPointEncoding, len(b))
	}
	x := new(big.Int).SetBytes(b[:32])
	y := new(big.Int).SetBytes(b[32:])
	if x.Sign() == 0 && y.Sign() == 0 {
		return Point{}, nil
	}
	if !curve.IsOnCurve(x, y) {
		return Point{}, fmt.Errorf("%w: not on curve", ErrBadPointEncoding)
	}
	return Point{X: x, Y: y}, nil
}
