//go:build amd64 && !purego

#include "textflag.h"

// SSE2 kernels for the float32 hot loops. See simd_amd64.go for the
// bitwise-identity contract with the scalar fallbacks.

// func addKernel(dst, a, b *float32, n int)
// dst[i] = a[i] + b[i]; Add passes dst as a. Each lane group is loaded
// before it is stored, so dst may alias either input.
TEXT ·addKernel(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX

add16:
	CMPQ CX, $16
	JLT  add4
	MOVUPS (SI), X0
	MOVUPS 16(SI), X1
	MOVUPS 32(SI), X2
	MOVUPS 48(SI), X3
	MOVUPS (DX), X4
	MOVUPS 16(DX), X5
	MOVUPS 32(DX), X6
	MOVUPS 48(DX), X7
	ADDPS  X4, X0
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, SI
	ADDQ   $64, DX
	SUBQ   $16, CX
	JMP    add16

add4:
	CMPQ CX, $4
	JLT  add1
	MOVUPS (SI), X0
	MOVUPS (DX), X4
	ADDPS  X4, X0
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	ADDQ   $16, DX
	SUBQ   $4, CX
	JMP    add4

add1:
	CMPQ CX, $0
	JLE  addDone
	MOVSS (SI), X0
	MOVSS (DX), X4
	ADDSS X4, X0
	MOVSS X0, (DI)
	ADDQ  $4, DI
	ADDQ  $4, SI
	ADDQ  $4, DX
	DECQ  CX
	JMP   add1

addDone:
	RET

// func axpyKernel(dst *float32, a float32, src *float32, n int)
// dst[i] += a*src[i], computed as mul-then-add (two roundings, no FMA) to
// match the scalar path exactly.
TEXT ·axpyKernel(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVSS  a+8(FP), X8
	SHUFPS $0x00, X8, X8
	MOVQ   src+16(FP), SI
	MOVQ   n+24(FP), CX

axpy8:
	CMPQ CX, $8
	JLT  axpy4
	MOVUPS (SI), X1
	MOVUPS 16(SI), X3
	MULPS  X8, X1
	MULPS  X8, X3
	MOVUPS (DI), X0
	MOVUPS 16(DI), X2
	ADDPS  X1, X0
	ADDPS  X3, X2
	MOVUPS X0, (DI)
	MOVUPS X2, 16(DI)
	ADDQ   $32, DI
	ADDQ   $32, SI
	SUBQ   $8, CX
	JMP    axpy8

axpy4:
	CMPQ CX, $4
	JLT  axpy1
	MOVUPS (SI), X1
	MULPS  X8, X1
	MOVUPS (DI), X0
	ADDPS  X1, X0
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	SUBQ   $4, CX
	JMP    axpy4

axpy1:
	CMPQ CX, $0
	JLE  axpyDone
	MOVSS (SI), X1
	MULSS X8, X1
	MOVSS (DI), X0
	ADDSS X1, X0
	MOVSS X0, (DI)
	ADDQ  $4, DI
	ADDQ  $4, SI
	DECQ  CX
	JMP   axpy1

axpyDone:
	RET

// func scaleKernel(v *float32, c float32, n int)
// v[i] *= c
TEXT ·scaleKernel(SB), NOSPLIT, $0-24
	MOVQ   v+0(FP), DI
	MOVSS  c+8(FP), X8
	SHUFPS $0x00, X8, X8
	MOVQ   n+16(FP), CX

scale8:
	CMPQ CX, $8
	JLT  scale4
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MULPS  X8, X0
	MULPS  X8, X1
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   $32, DI
	SUBQ   $8, CX
	JMP    scale8

scale4:
	CMPQ CX, $4
	JLT  scale1
	MOVUPS (DI), X0
	MULPS  X8, X0
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	SUBQ   $4, CX
	JMP    scale4

scale1:
	CMPQ CX, $0
	JLE  scaleDone
	MOVSS (DI), X0
	MULSS X8, X0
	MOVSS X0, (DI)
	ADDQ  $4, DI
	DECQ  CX
	JMP   scale1

scaleDone:
	RET

DATA absMask32<>+0(SB)/4, $0x7fffffff
DATA absMask32<>+4(SB)/4, $0x7fffffff
DATA absMask32<>+8(SB)/4, $0x7fffffff
DATA absMask32<>+12(SB)/4, $0x7fffffff
GLOBL absMask32<>(SB), RODATA|NOPTR, $16

// func absMaxKernel(v *float32, n int) float32
// max_i |v[i]| — max is associative and exact, so lane-parallel reduction
// returns the same bits as the scalar scan for finite inputs.
TEXT ·absMaxKernel(SB), NOSPLIT, $0-20
	MOVQ   v+0(FP), SI
	MOVQ   n+8(FP), CX
	PXOR   X0, X0
	MOVUPS absMask32<>(SB), X7

amax4:
	CMPQ CX, $4
	JLT  amax1
	MOVUPS (SI), X1
	ANDPS  X7, X1
	MAXPS  X1, X0
	ADDQ   $16, SI
	SUBQ   $4, CX
	JMP    amax4

amax1:
	CMPQ CX, $0
	JLE  amaxFold
	MOVSS (SI), X1
	ANDPS X7, X1
	MAXSS X1, X0
	ADDQ  $4, SI
	DECQ  CX
	JMP   amax1

amaxFold:
	MOVAPS X0, X1
	SHUFPS $0x4E, X0, X1
	MAXPS  X1, X0
	MOVAPS X0, X1
	SHUFPS $0xB1, X0, X1
	MAXPS  X1, X0
	MOVSS  X0, ret+16(FP)
	RET

DATA absMask64<>+0(SB)/8, $0x7fffffffffffffff
DATA absMask64<>+8(SB)/8, $0x7fffffffffffffff
GLOBL absMask64<>(SB), RODATA|NOPTR, $16

// func qsgdFieldsKernel(fields *uint32, g *float32, rnd *float64, n int, norm float64, s float64)
//
// Two elements per iteration, replicating the scalar math exactly:
//   scaled = float64(|g[i]|) / norm * s      (CVTPS2PD, ANDPD, DIVPD, MULPD)
//   level  = trunc(scaled)                   (CVTTPD2PL)
//   level++ when rnd[i] < scaled - level     (CVTPL2PD, SUBPD, CMPPD lt)
//   level  = min(level, s)                   (PCMPGTL select)
//   fields[i] = signbit(g[i]) | level<<1
// n must be even.
TEXT ·qsgdFieldsKernel(SB), NOSPLIT, $0-48
	MOVQ fields+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rnd+16(FP), DX
	MOVQ n+24(FP), CX

	// X8 = [norm, norm], X9 = [s, s], X10 = [int32(s) x4]
	MOVSD    norm+32(FP), X8
	UNPCKLPD X8, X8
	MOVSD    s+40(FP), X9
	UNPCKLPD X9, X9
	CVTTSD2SL s+40(FP), AX
	MOVQ     AX, X10
	PSHUFD   $0x00, X10, X10

qf2:
	CMPQ CX, $2
	JLT  qfDone

	MOVSD    (SI), X0             // two float32 values in lanes 0,1
	CVTPS2PD X0, X1               // X1 = [f64(x0), f64(x1)]
	ANDPD    absMask64<>(SB), X1  // |x|
	DIVPD    X8, X1               // |x| / norm
	MULPD    X9, X1               // scaled = |x|/norm*s
	CVTTPD2PL X1, X2              // level = trunc(scaled) in dword lanes 0,1
	CVTPL2PD X2, X3               // float64(level)
	SUBPD    X3, X1               // frac = scaled - level
	MOVOU    (DX), X4             // rnd pair (as raw bits)
	CMPPD    X1, X4, $1           // X4 = (rnd < frac) ? ~0 : 0, per qword lane
	PSHUFD   $0x88, X4, X4        // pack qword masks into dword lanes 0,1
	PSUBL    X4, X2               // level -= mask  (mask = -1 => level++)

	// clamp: level = min(level, s)
	MOVO     X2, X5
	PCMPGTL  X10, X5              // X5 = (level > s) ? ~0 : 0
	MOVO     X5, X6
	PANDN    X2, X6               // X6 = level where not greater
	PAND     X10, X5              // X5 = s where greater
	POR      X5, X6               // clamped level

	// field = signbit | level<<1
	MOVO     X0, X7
	PSRLL    $31, X7
	PSLLL    $1, X6
	POR      X7, X6
	MOVQ     X6, (DI)             // two packed dword fields

	ADDQ $8, SI
	ADDQ $16, DX
	ADDQ $8, DI
	SUBQ $2, CX
	JMP  qf2

qfDone:
	RET

// func selectAddKernel(dst, base, sgn *float32, n int, p, q float32)
// dst[i] = base[i] + (sgn[i] >= 0 ? p : q). The sign test is CMPLEPS
// 0 <= sgn (false for NaN, true for -0.0, exactly the scalar x >= 0), the
// select an AND/ANDN/OR blend of the broadcast constants, then one ADDPS:
// the same single rounding as the scalar add. Loads precede the store of
// each lane group, so dst may alias base and sgn.
TEXT ·selectAddKernel(SB), NOSPLIT, $0-40
	MOVQ   dst+0(FP), DI
	MOVQ   base+8(FP), SI
	MOVQ   sgn+16(FP), DX
	MOVQ   n+24(FP), CX
	MOVSS  p+32(FP), X8
	SHUFPS $0x00, X8, X8
	MOVSS  q+36(FP), X9
	SHUFPS $0x00, X9, X9
	XORPS  X10, X10

sa8:
	CMPQ   CX, $8
	JLT    sa4
	MOVUPS (DX), X0
	MOVUPS 16(DX), X1
	MOVAPS X10, X2
	MOVAPS X10, X3
	CMPPS  X0, X2, $2     // X2 = (0 <= sgn) ? ~0 : 0
	CMPPS  X1, X3, $2
	MOVAPS X2, X4
	MOVAPS X3, X5
	ANDPS  X8, X4         // p where sgn >= 0
	ANDPS  X8, X5
	ANDNPS X9, X2         // q elsewhere
	ANDNPS X9, X3
	ORPS   X4, X2
	ORPS   X5, X3
	MOVUPS (SI), X0
	MOVUPS 16(SI), X1
	ADDPS  X2, X0
	ADDPS  X3, X1
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   $32, DI
	ADDQ   $32, SI
	ADDQ   $32, DX
	SUBQ   $8, CX
	JMP    sa8

sa4:
	CMPQ   CX, $4
	JLT    sa1
	MOVUPS (DX), X0
	MOVAPS X10, X2
	CMPPS  X0, X2, $2
	MOVAPS X2, X4
	ANDPS  X8, X4
	ANDNPS X9, X2
	ORPS   X4, X2
	MOVUPS (SI), X0
	ADDPS  X2, X0
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	ADDQ   $16, DX
	SUBQ   $4, CX
	JMP    sa4

sa1:
	CMPQ   CX, $0
	JLE    saDone
	MOVSS  (DX), X0
	MOVAPS X10, X2
	CMPSS  X0, X2, $2
	MOVAPS X2, X4
	ANDPS  X8, X4
	ANDNPS X9, X2
	ORPS   X4, X2
	MOVSS  (SI), X0
	ADDSS  X2, X0
	MOVSS  X0, (DI)
	ADDQ   $4, DI
	ADDQ   $4, SI
	ADDQ   $4, DX
	DECQ   CX
	JMP    sa1

saDone:
	RET

// func sumLanesKernel(v *float32, n int, s *[8]float64)
//
// Eight float64 lanes, two per register: X2 = lanes 0,1 ... X5 = lanes 6,7,
// each fed by CVTPS2PD of its float pair straight from memory and
// accumulated with ADDPD — per lane exactly the scalar s[i&7] += float64(x)
// sequence. n must be a multiple of 8.
TEXT ·sumLanesKernel(SB), NOSPLIT, $0-24
	MOVQ  v+0(FP), SI
	MOVQ  n+8(FP), CX
	MOVQ  s+16(FP), DI
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5

sl8:
	CMPQ     CX, $8
	JLT      slDone
	CVTPS2PD (SI), X0
	CVTPS2PD 8(SI), X1
	CVTPS2PD 16(SI), X6
	CVTPS2PD 24(SI), X7
	ADDPD    X0, X2
	ADDPD    X1, X3
	ADDPD    X6, X4
	ADDPD    X7, X5
	ADDQ     $32, SI
	SUBQ     $8, CX
	JMP      sl8

slDone:
	MOVUPD X2, (DI)
	MOVUPD X3, 16(DI)
	MOVUPD X4, 32(DI)
	MOVUPD X5, 48(DI)
	RET

// func sqDevLanesKernel(v *float32, n int, c float64, s *[8]float64)
//
// sumLanesKernel over d*d with d = float64(x) - c: SUBPD then MULPD then
// ADDPD, three roundings exactly as the scalar loop. n must be a multiple
// of 8.
TEXT ·sqDevLanesKernel(SB), NOSPLIT, $0-32
	MOVQ     v+0(FP), SI
	MOVQ     n+8(FP), CX
	MOVSD    c+16(FP), X8
	UNPCKLPD X8, X8
	MOVQ     s+24(FP), DI
	XORPS    X2, X2
	XORPS    X3, X3
	XORPS    X4, X4
	XORPS    X5, X5

sq8:
	CMPQ     CX, $8
	JLT      sqDone
	CVTPS2PD (SI), X0
	CVTPS2PD 8(SI), X1
	CVTPS2PD 16(SI), X6
	CVTPS2PD 24(SI), X7
	SUBPD    X8, X0
	SUBPD    X8, X1
	SUBPD    X8, X6
	SUBPD    X8, X7
	MULPD    X0, X0
	MULPD    X1, X1
	MULPD    X6, X6
	MULPD    X7, X7
	ADDPD    X0, X2
	ADDPD    X1, X3
	ADDPD    X6, X4
	ADDPD    X7, X5
	ADDQ     $32, SI
	SUBQ     $8, CX
	JMP      sq8

sqDone:
	MOVUPD X2, (DI)
	MOVUPD X3, 16(DI)
	MOVUPD X4, 32(DI)
	MOVUPD X5, 48(DI)
	RET

// func gaussTailKernel(dst *int32, src *float32, n int, base int32, mu, tau float64, lo, hi float32) int64
//
// Four elements per iteration. Selection is expected sparse (~0.1%), so
// the group is first tested against the float32 bounds: lo <= x && x <= hi
// in every lane (CMPPS le, false for NaN) rejects all four at once. Other
// groups take the exact test per float pair: d = |float64(x) - mu|
// (CVTPS2PD, SUBPD, ANDPD), select when tau < d (CMPPD lt with tau as
// destination, so a NaN distance never selects — the scalar predicate
// d > tau exactly), with scalar stores. n must be a multiple of 4.
TEXT ·gaussTailKernel(SB), NOSPLIT, $0-64
	MOVQ     dst+0(FP), DI
	MOVQ     src+8(FP), SI
	MOVQ     n+16(FP), CX
	MOVL     base+24(FP), R8      // flattened index of the group
	MOVSD    mu+32(FP), X8
	UNPCKLPD X8, X8
	MOVSD    tau+40(FP), X9
	UNPCKLPD X9, X9
	MOVSS    lo+48(FP), X10
	SHUFPS   $0x00, X10, X10
	MOVSS    hi+52(FP), X11
	SHUFPS   $0x00, X11, X11
	XORQ     R9, R9               // selected count

gt4:
	CMPQ     CX, $4
	JLT      gtDone
	MOVUPS   (SI), X0
	MOVAPS   X10, X1
	CMPPS    X0, X1, $2           // X1 = (lo <= x) ? ~0 : 0
	MOVAPS   X0, X2
	CMPPS    X11, X2, $2          // X2 = (x <= hi) ? ~0 : 0
	ANDPS    X2, X1
	MOVMSKPS X1, AX
	CMPQ     AX, $15
	JEQ      gtSkip

	// exact test, low pair (elements 0, 1)
	CVTPS2PD X0, X1               // [f64(x0), f64(x1)]
	SUBPD    X8, X1               // x - mu
	ANDPD    absMask64<>(SB), X1  // d = |x - mu|
	MOVAPS   X9, X2
	CMPPD    X1, X2, $1           // X2 = (tau < d) ? ~0 : 0, per qword lane
	MOVMSKPD X2, AX
	TESTQ    $1, AX
	JZ       gt1
	MOVL     R8, (DI)(R9*4)
	INCQ     R9

gt1:
	TESTQ $2, AX
	JZ    gt2
	LEAL  1(R8), R10
	MOVL  R10, (DI)(R9*4)
	INCQ  R9

gt2:
	// exact test, high pair (elements 2, 3)
	SHUFPS   $0xEE, X0, X0
	CVTPS2PD X0, X1
	SUBPD    X8, X1
	ANDPD    absMask64<>(SB), X1
	MOVAPS   X9, X2
	CMPPD    X1, X2, $1
	MOVMSKPD X2, AX
	TESTQ    $1, AX
	JZ       gt3
	LEAL     2(R8), R10
	MOVL     R10, (DI)(R9*4)
	INCQ     R9

gt3:
	TESTQ $2, AX
	JZ    gtSkip
	LEAL  3(R8), R10
	MOVL  R10, (DI)(R9*4)
	INCQ  R9

gtSkip:
	ADDL $4, R8
	ADDQ $16, SI
	SUBQ $4, CX
	JMP  gt4

gtDone:
	MOVQ R9, ret+56(FP)
	RET

// func eliasPackKernel(words *uint32, fields *uint32, n int, bitPos uint64) uint64
//
// Batched Elias-gamma+sign writer (see tensor.EliasGammaSignPack for the
// stream contract): per field, BSR finds the bit length of level+1, the
// whole gamma(level+1)[+sign] code is assembled in a register and ORed into
// the MSB-first word stream with one unconditional two-word store. Codes are
// at most 30 bits (level+1 < 1<<15, the constructor guard), so the pair
// store never reaches past one spare word.
TEXT ·eliasPackKernel(SB), NOSPLIT, $0-40
	MOVQ words+0(FP), DI
	MOVQ fields+8(FP), SI
	MOVQ n+16(FP), DX
	MOVQ bitPos+24(FP), BX

epLoop:
	MOVL (SI), AX        // f = sign | level<<1
	MOVL AX, R8
	ANDL $1, R8          // sign
	SHRL $1, AX          // level
	LEAL 1(AX), R9       // v = level + 1
	BSRL R9, R10         // n0 = bitlen(v) - 1
	MOVL R10, R11
	SHLL $1, R11
	INCL R11             // width = 2*n0 + 1
	MOVL R9, R12         // code = v
	TESTL AX, AX
	JZ   epNoSign
	SHLQ $1, R12         // append sign bit when level > 0
	ORQ  R8, R12
	INCL R11

epNoSign:
	MOVQ BX, R13
	SHRQ $5, R13         // w = bitPos / 32
	MOVQ $64, CX
	SUBQ R11, CX
	MOVQ BX, R9
	ANDQ $31, R9
	SUBQ R9, CX          // shift = 64 - width - (bitPos % 32)
	SHLQ CX, R12         // code aligned to the top of a 64-bit window
	MOVQ R12, R9
	SHRQ $32, R9
	ORL  R9, (DI)(R13*4)  // high dword into words[w]
	ORL  R12, 4(DI)(R13*4) // low dword into words[w+1]
	ADDQ R11, BX         // bitPos += width
	ADDQ $4, SI
	DECQ DX
	JNZ  epLoop

	MOVQ BX, ret+32(FP)
	RET

// func signedMeansKernel(v *float32, n int) (sp, sn float64, nNeg int64)
//
// Two double-precision accumulator lanes per sum, split by element parity,
// folded lane0+lane1 at the end. Sign classification is the exact scalar
// predicate x >= 0 expressed as NOT(x < 0): -0.0 counts as non-negative,
// matching the scalar loop.
TEXT ·signedMeansKernel(SB), NOSPLIT, $0-40
	MOVQ v+0(FP), SI
	MOVQ n+8(FP), CX
	PXOR X2, X2 // sp accumulator (2 × float64)
	PXOR X3, X3 // sn accumulator (2 × float64)
	PXOR X4, X4 // negative-count accumulator (2 × int64)
	PXOR X7, X7 // 0.0 pair for the sign compare

sm4:
	CMPQ CX, $4
	JL   smFold
	MOVUPS (SI), X0

	// low float pair -> doubles
	CVTPS2PD X0, X1
	MOVO     X1, X5
	CMPPD    X7, X5, $1 // X5 = (x < 0) ? ~0 : 0
	MOVO     X5, X6
	ANDNPD   X1, X6     // x where x >= 0, +0.0 elsewhere
	ADDPD    X6, X2
	MOVO     X5, X6
	ANDPD    X1, X6     // x where x < 0, +0.0 elsewhere
	SUBPD    X6, X3     // sn -= x  (accumulates |x|)
	PSUBQ    X5, X4     // count += 1 per negative lane (mask qword = -1)

	// high float pair -> doubles
	MOVAPS   X0, X1
	SHUFPS   $0xEE, X1, X1
	CVTPS2PD X1, X1
	MOVO     X1, X5
	CMPPD    X7, X5, $1
	MOVO     X5, X6
	ANDNPD   X1, X6
	ADDPD    X6, X2
	MOVO     X5, X6
	ANDPD    X1, X6
	SUBPD    X6, X3
	PSUBQ    X5, X4

	ADDQ $16, SI
	SUBQ $4, CX
	JMP  sm4

smFold:
	PSHUFD $0x4E, X2, X1
	ADDSD  X1, X2
	MOVSD  X2, sp+16(FP)
	PSHUFD $0x4E, X3, X1
	ADDSD  X1, X3
	MOVSD  X3, sn+24(FP)
	PSHUFD $0x4E, X4, X1
	PADDQ  X1, X4
	MOVQ   X4, AX
	MOVQ   AX, nNeg+32(FP)
	RET

// func gemmKernel(dst, a, b *float32, m, k, n, ars, aks int, add bool)
// For each of m output rows, dst[j] = Σ_kk a[kk·aks]·b[kk·n + j] (plus the
// old dst[j] when add), then a += ars. The sum runs kk-ascending from +0
// with MULPS then ADDPS per term, skipping a[kk·aks] == 0 (UCOMISS: an
// unordered compare, i.e. a NaN, is not skipped). Columns go in blocks of
// 16 (four accumulators), then 4, then 1. dst rows are contiguous.
//
// Registers: DI dst, SI a row, DX b, R8 aks bytes, R9 b row bytes, R10 a
// row span (k·aks bytes), R11 rows left, R12 a row end, CX columns left,
// AX b column, R13 a walk, BX b walk; X14 = 0, X4 = broadcast a.
TEXT ·gemmKernel(SB), NOSPLIT, $0-65
	MOVQ  dst+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  b+16(FP), DX
	MOVQ  m+24(FP), R11
	MOVQ  aks+56(FP), R8
	SHLQ  $2, R8
	MOVQ  n+40(FP), R9
	SHLQ  $2, R9
	MOVQ  k+32(FP), R10
	IMULQ R8, R10
	XORPS X14, X14

gemmRow:
	TESTQ R11, R11
	JEQ   gemmDone
	LEAQ  (SI)(R10*1), R12
	MOVQ  DX, AX
	MOVQ  n+40(FP), CX

gemmC16:
	CMPQ  CX, $16
	JLT   gemmC4
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ  SI, R13
	MOVQ  AX, BX

gemmK16:
	MOVSS   (R13), X4
	UCOMISS X14, X4
	JPS     gemmM16
	JEQ     gemmN16

gemmM16:
	SHUFPS $0x00, X4, X4
	MOVUPS (BX), X5
	MOVUPS 16(BX), X6
	MOVUPS 32(BX), X7
	MOVUPS 48(BX), X8
	MULPS  X4, X5
	MULPS  X4, X6
	MULPS  X4, X7
	MULPS  X4, X8
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDPS  X7, X2
	ADDPS  X8, X3

gemmN16:
	ADDQ R8, R13
	ADDQ R9, BX
	CMPQ R13, R12
	JNE  gemmK16
	CMPB add+64(FP), $0
	JEQ  gemmS16
	MOVUPS (DI), X5
	MOVUPS 16(DI), X6
	MOVUPS 32(DI), X7
	MOVUPS 48(DI), X8
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDPS  X7, X2
	ADDPS  X8, X3

gemmS16:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, AX
	SUBQ   $16, CX
	JMP    gemmC16

gemmC4:
	CMPQ  CX, $4
	JLT   gemmC1
	XORPS X0, X0
	MOVQ  SI, R13
	MOVQ  AX, BX

gemmK4:
	MOVSS   (R13), X4
	UCOMISS X14, X4
	JPS     gemmM4
	JEQ     gemmN4

gemmM4:
	SHUFPS $0x00, X4, X4
	MOVUPS (BX), X5
	MULPS  X4, X5
	ADDPS  X5, X0

gemmN4:
	ADDQ R8, R13
	ADDQ R9, BX
	CMPQ R13, R12
	JNE  gemmK4
	CMPB add+64(FP), $0
	JEQ  gemmS4
	MOVUPS (DI), X5
	ADDPS  X5, X0

gemmS4:
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	ADDQ   $16, AX
	SUBQ   $4, CX
	JMP    gemmC4

gemmC1:
	TESTQ CX, CX
	JEQ   gemmRowEnd
	XORPS X0, X0
	MOVQ  SI, R13
	MOVQ  AX, BX

gemmK1:
	MOVSS   (R13), X4
	UCOMISS X14, X4
	JPS     gemmM1
	JEQ     gemmN1

gemmM1:
	MOVSS (BX), X5
	MULSS X4, X5
	ADDSS X5, X0

gemmN1:
	ADDQ R8, R13
	ADDQ R9, BX
	CMPQ R13, R12
	JNE  gemmK1
	CMPB add+64(FP), $0
	JEQ  gemmS1
	MOVSS (DI), X5
	ADDSS X5, X0

gemmS1:
	MOVSS X0, (DI)
	ADDQ  $4, DI
	ADDQ  $4, AX
	DECQ  CX
	JMP   gemmC1

gemmRowEnd:
	MOVQ ars+48(FP), R13
	LEAQ (SI)(R13*4), SI
	DECQ R11
	JMP  gemmRow

gemmDone:
	RET

// func gemmDotKernel(dst, a, bt *float32, m, k, n int)
// For each of m output rows, dst[j] = float32(Σ_kk float64(a[kk])·
// float64(bt[kk·n + j])), then a += k. Each column is its own float64
// chain, kk-ascending from +0: CVTPS2PD, MULPD (exact: a float32 product
// fits in a float64), ADDPD, and one CVTPD2PS at the end — Dot's arithmetic
// per element. Columns go in blocks of 8 (four accumulators), then 2,
// then 1.
//
// Registers as in gemmKernel; the a walk steps 4 bytes and X4 holds the
// broadcast float64(a[kk]).
TEXT ·gemmDotKernel(SB), NOSPLIT, $0-48
	MOVQ  dst+0(FP), DI
	MOVQ  a+8(FP), SI
	MOVQ  bt+16(FP), DX
	MOVQ  m+24(FP), R11
	MOVQ  n+40(FP), R9
	SHLQ  $2, R9
	MOVQ  k+32(FP), R10
	SHLQ  $2, R10

dotRow:
	TESTQ R11, R11
	JEQ   dotDone
	LEAQ  (SI)(R10*1), R12
	MOVQ  DX, AX
	MOVQ  n+40(FP), CX

dotC8:
	CMPQ  CX, $8
	JLT   dotC2
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ  SI, R13
	MOVQ  AX, BX

dotK8:
	CVTSS2SD (R13), X4
	UNPCKLPD X4, X4
	CVTPS2PD (BX), X5
	CVTPS2PD 8(BX), X6
	CVTPS2PD 16(BX), X7
	CVTPS2PD 24(BX), X8
	MULPD    X4, X5
	MULPD    X4, X6
	MULPD    X4, X7
	MULPD    X4, X8
	ADDPD    X5, X0
	ADDPD    X6, X1
	ADDPD    X7, X2
	ADDPD    X8, X3
	ADDQ     $4, R13
	ADDQ     R9, BX
	CMPQ     R13, R12
	JNE      dotK8
	CVTPD2PS X0, X0
	CVTPD2PS X1, X1
	MOVLHPS  X1, X0
	CVTPD2PS X2, X2
	CVTPD2PS X3, X3
	MOVLHPS  X3, X2
	MOVUPS   X0, (DI)
	MOVUPS   X2, 16(DI)
	ADDQ     $32, DI
	ADDQ     $32, AX
	SUBQ     $8, CX
	JMP      dotC8

dotC2:
	CMPQ  CX, $2
	JLT   dotC1
	XORPS X0, X0
	MOVQ  SI, R13
	MOVQ  AX, BX

dotK2:
	CVTSS2SD (R13), X4
	UNPCKLPD X4, X4
	CVTPS2PD (BX), X5
	MULPD    X4, X5
	ADDPD    X5, X0
	ADDQ     $4, R13
	ADDQ     R9, BX
	CMPQ     R13, R12
	JNE      dotK2
	CVTPD2PS X0, X0
	MOVSD    X0, (DI)
	ADDQ     $8, DI
	ADDQ     $8, AX
	SUBQ     $2, CX
	JMP      dotC2

dotC1:
	TESTQ CX, CX
	JEQ   dotRowEnd
	XORPS X0, X0
	MOVQ  SI, R13
	MOVQ  AX, BX

dotK1:
	CVTSS2SD (R13), X4
	CVTSS2SD (BX), X5
	MULSD    X4, X5
	ADDSD    X5, X0
	ADDQ     $4, R13
	ADDQ     R9, BX
	CMPQ     R13, R12
	JNE      dotK1
	CVTSD2SS X0, X0
	MOVSS    X0, (DI)
	ADDQ     $4, DI

dotRowEnd:
	MOVQ R12, SI
	DECQ R11
	JMP  dotRow

dotDone:
	RET
