// Package fusion implements the "low-level" information-fusion chain of
// the paper's §2.4: building vessel tracks from position measurements,
// associating new contacts to tracks, and recognising when two sources
// describe the same object. The pieces are a constant-velocity Kalman
// filter on a local tangent plane, Mahalanobis gating,
// global-nearest-neighbour association via the Hungarian algorithm, and
// a track lifecycle manager.
package fusion

import (
	"math"
	"time"

	"repro/internal/geo"
)

// Vec4 is a column vector [x, y, vx, vy]: position in metres on the local
// plane and velocity in m/s.
type Vec4 [4]float64

// Mat4 is a 4×4 matrix in row-major order.
type Mat4 [16]float64

// Mat2 is a 2×2 matrix (measurement space).
type Mat2 [4]float64

func (m Mat2) det() float64 { return m[0]*m[3] - m[1]*m[2] }

func (m Mat2) inv() (Mat2, bool) {
	d := m.det()
	if math.Abs(d) < 1e-12 {
		return Mat2{}, false
	}
	return Mat2{m[3] / d, -m[1] / d, -m[2] / d, m[0] / d}, true
}

// KalmanCV is a constant-velocity Kalman filter over a local tangent
// plane. ProcessNoise is the white-acceleration spectral density q
// (m²/s³); larger values track manoeuvres faster at the price of noisier
// estimates.
type KalmanCV struct {
	Plane        geo.LocalPlane
	ProcessNoise float64

	X Vec4 // state estimate
	P Mat4 // state covariance
	T time.Time

	initialised bool
}

// NewKalmanCV returns a filter anchored at origin with the given process
// noise density.
func NewKalmanCV(origin geo.Point, processNoise float64) *KalmanCV {
	return &KalmanCV{Plane: geo.NewLocalPlane(origin), ProcessNoise: processNoise}
}

// Initialised reports whether the filter has consumed a measurement.
func (k *KalmanCV) Initialised() bool { return k.initialised }

// Init seeds the filter from a first measurement with the given position
// standard deviation in metres.
func (k *KalmanCV) Init(at time.Time, p geo.Point, sigmaM float64) {
	e, n := k.Plane.Forward(p)
	k.X = Vec4{e, n, 0, 0}
	k.P = Mat4{}
	k.P[0] = sigmaM * sigmaM
	k.P[5] = sigmaM * sigmaM
	k.P[10] = 100 // generous initial velocity variance: 10 m/s sigma
	k.P[15] = 100
	k.T = at
	k.initialised = true
}

// Predict advances the state to time at without a measurement.
//
// The covariance propagation P = F P Fᵀ + Q is specialised for the CV
// transition (F = I with F[0,2] = F[1,3] = dt): F·P adds dt-scaled rows
// 2/3 into rows 0/1, then ·Fᵀ adds dt-scaled columns 2/3 into columns
// 0/1. This is the ingest hot path (one Predict per archived record in
// the track stage), and the specialised sums round identically to the
// dense 4×4 multiplies they replace — the zero and one entries of F
// contribute exact no-ops — so filter state is bit-for-bit unchanged.
func (k *KalmanCV) Predict(at time.Time) {
	dt := at.Sub(k.T).Seconds()
	if dt <= 0 {
		return
	}
	k.X[0] += dt * k.X[2]
	k.X[1] += dt * k.X[3]
	p := &k.P
	for j := 0; j < 4; j++ {
		p[j] += dt * p[8+j]    // row 0 += dt·row 2
		p[4+j] += dt * p[12+j] // row 1 += dt·row 3
	}
	for i := 0; i < 16; i += 4 {
		p[i] += dt * p[i+2]   // col 0 += dt·col 2
		p[i+1] += dt * p[i+3] // col 1 += dt·col 3
	}
	q := k.ProcessNoise
	dt2 := dt * dt
	dt3 := dt2 * dt
	dt4 := dt3 * dt
	p[0] += q * dt4 / 4
	p[5] += q * dt4 / 4
	p[2] += q * dt3 / 2
	p[7] += q * dt3 / 2
	p[8] += q * dt3 / 2
	p[13] += q * dt3 / 2
	p[10] += q * dt2
	p[15] += q * dt2
	k.T = at
}

// processNoiseQ builds the discrete white-acceleration process noise.
func processNoiseQ(q, dt float64) Mat4 {
	dt2 := dt * dt
	dt3 := dt2 * dt
	dt4 := dt3 * dt
	var Q Mat4
	Q[0] = q * dt4 / 4
	Q[5] = q * dt4 / 4
	Q[2] = q * dt3 / 2
	Q[7] = q * dt3 / 2
	Q[8] = q * dt3 / 2
	Q[13] = q * dt3 / 2
	Q[10] = q * dt2
	Q[15] = q * dt2
	return Q
}

// innovation returns the measurement residual and its covariance for a
// position measurement with noise sigmaM, WITHOUT updating the state.
func (k *KalmanCV) innovation(p geo.Point, sigmaM float64) (dy [2]float64, S Mat2) {
	e, n := k.Plane.Forward(p)
	dy[0] = e - k.X[0]
	dy[1] = n - k.X[1]
	S = Mat2{
		k.P[0] + sigmaM*sigmaM, k.P[1],
		k.P[4], k.P[5] + sigmaM*sigmaM,
	}
	return dy, S
}

// MahalanobisSq returns the squared Mahalanobis distance of the position
// measurement from the predicted state (χ²-distributed with 2 dof under
// the correct-association hypothesis).
func (k *KalmanCV) MahalanobisSq(p geo.Point, sigmaM float64) float64 {
	dy, S := k.innovation(p, sigmaM)
	Si, ok := S.inv()
	if !ok {
		return math.Inf(1)
	}
	return dy[0]*(Si[0]*dy[0]+Si[1]*dy[1]) + dy[1]*(Si[2]*dy[0]+Si[3]*dy[1])
}

// Update fuses a position measurement taken at the filter's current time
// (call Predict first to advance).
func (k *KalmanCV) Update(p geo.Point, sigmaM float64) {
	if !k.initialised {
		k.Init(k.T, p, sigmaM)
		return
	}
	dy, S := k.innovation(p, sigmaM)
	Si, ok := S.inv()
	if !ok {
		return
	}
	// K = P Hᵀ S⁻¹ with H = [I₂ 0]; P Hᵀ is the first two columns of P.
	var K [4][2]float64
	for i := 0; i < 4; i++ {
		ph0 := k.P[i*4]   // column 0
		ph1 := k.P[i*4+1] // column 1
		K[i][0] = ph0*Si[0] + ph1*Si[2]
		K[i][1] = ph0*Si[1] + ph1*Si[3]
	}
	for i := 0; i < 4; i++ {
		k.X[i] += K[i][0]*dy[0] + K[i][1]*dy[1]
	}
	// P = (I − K H) P : subtract K·(first two rows of P).
	var KP Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			KP[i*4+j] = K[i][0]*k.P[j] + K[i][1]*k.P[4+j]
		}
	}
	for i := range k.P {
		k.P[i] -= KP[i]
	}
}

// Position returns the current geographic position estimate.
func (k *KalmanCV) Position() geo.Point {
	return k.Plane.Inverse(k.X[0], k.X[1])
}

// Velocity returns the current velocity estimate.
func (k *KalmanCV) Velocity() geo.Velocity {
	speed := math.Hypot(k.X[2], k.X[3])
	course := geo.NormalizeBearing(geo.Degrees(math.Atan2(k.X[2], k.X[3])))
	return geo.Velocity{SpeedMS: speed, CourseDg: course}
}

// PositionUncertaintyM returns the 1-sigma circular position uncertainty
// (square root of the mean position variance).
func (k *KalmanCV) PositionUncertaintyM() float64 {
	return math.Sqrt((k.P[0] + k.P[5]) / 2)
}

// PredictedPosition returns the geographic position the filter would
// predict at the given time without mutating the filter state.
func (k *KalmanCV) PredictedPosition(at time.Time) geo.Point {
	dt := at.Sub(k.T).Seconds()
	return k.Plane.Inverse(k.X[0]+k.X[2]*dt, k.X[1]+k.X[3]*dt)
}
