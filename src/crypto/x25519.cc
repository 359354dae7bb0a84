#include "crypto/x25519.h"

#include <cstring>

#include "crypto/random.h"

namespace sesemi::crypto {

// Field arithmetic over GF(p), p = 2^255 - 19, in radix 2^51: an element is
// v[0] + v[1]*2^51 + v[2]*2^102 + v[3]*2^153 + v[4]*2^204. Limb bounds:
//  - "tight": every limb < 2^51 + 2^13. FromBytes, Mul, Square and
//    Mul121665 return tight elements.
//  - Add/Sub of tight elements give limbs < 2^53.
//  - Mul/Square/Mul121665 accept limbs < 2^54.
// Column products go to unsigned __int128 accumulators, and the columns at
// or above 2^255 fold back with 2^255 = 19 (mod p). Nothing here branches on
// or indexes by secret data; the scalar is indexed by the loop counter only.
namespace {
using u128 = unsigned __int128;

struct Fe {
  uint64_t v[5];
};

constexpr uint64_t kMask51 = (uint64_t{1} << 51) - 1;

u128 M(uint64_t a, uint64_t b) { return static_cast<u128>(a) * b; }

uint64_t Load64(const uint8_t* p) {
  uint64_t w = 0;
  for (int i = 7; i >= 0; --i) w = (w << 8) | p[i];
  return w;
}

// Bit 255 of the u-coordinate is masked off (RFC 7748 §5). Non-canonical
// values in [p, 2^255) need no special case: the arithmetic is mod p.
Fe FromBytes(const uint8_t* s) {
  return Fe{{Load64(s) & kMask51, (Load64(s + 6) >> 3) & kMask51,
             (Load64(s + 12) >> 6) & kMask51, (Load64(s + 19) >> 1) & kMask51,
             (Load64(s + 24) >> 12) & kMask51}};
}

// Carries column sums down to a tight element. Callers guarantee t[i] < 2^115
// (each carry t[i] >> 51 < 2^64) and t[4] < 5 * 2^108, so the ×19 fold of
// t[4] >> 51 is < 95 * 2^57 < 2^64 and its carry out of v[0] is < 2^13.
Fe CarryWide(u128 t[5]) {
  Fe r;
  for (int i = 0; i < 4; ++i) {
    t[i + 1] += t[i] >> 51;
    r.v[i] = static_cast<uint64_t>(t[i]) & kMask51;
  }
  r.v[4] = static_cast<uint64_t>(t[4]) & kMask51;
  r.v[0] += 19 * static_cast<uint64_t>(t[4] >> 51);
  r.v[1] += r.v[0] >> 51;  // r.v[1] < 2^51 + 2^13
  r.v[0] &= kMask51;
  return r;
}

// a, b tight: limbs < 2^52 + 2^14 < 2^53.
Fe Add(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}

// a, b tight: computes a + 2p - b. The limbs of 2p (2^52 - 38, 2^52 - 2, ...)
// exceed every tight limb, so nothing underflows; result limbs < 2^53.
Fe Sub(const Fe& a, const Fe& b) {
  constexpr uint64_t k2p0 = (uint64_t{1} << 52) - 38;
  constexpr uint64_t k2pi = (uint64_t{1} << 52) - 2;
  Fe r;
  r.v[0] = a.v[0] + k2p0 - b.v[0];
  for (int i = 1; i < 5; ++i) r.v[i] = a.v[i] + k2pi - b.v[i];
  return r;
}

// a, b limbs < 2^54: each product < 2^108 and 19*b < 2^59, so the widest
// column (t[0], 1 + 4*19 = 77 products) is < 2^115 and t[4] (5 products)
// is < 5 * 2^108. Returns a tight element.
Fe Mul(const Fe& a, const Fe& b) {
  const uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  const uint64_t b1_19 = 19 * b1, b2_19 = 19 * b2, b3_19 = 19 * b3, b4_19 = 19 * b4;
  u128 t[5] = {
      M(a0, b0) + M(a1, b4_19) + M(a2, b3_19) + M(a3, b2_19) + M(a4, b1_19),
      M(a0, b1) + M(a1, b0) + M(a2, b4_19) + M(a3, b3_19) + M(a4, b2_19),
      M(a0, b2) + M(a1, b1) + M(a2, b0) + M(a3, b4_19) + M(a4, b3_19),
      M(a0, b3) + M(a1, b2) + M(a2, b1) + M(a3, b0) + M(a4, b4_19),
      M(a0, b4) + M(a1, b3) + M(a2, b2) + M(a3, b1) + M(a4, b0)};
  return CarryWide(t);
}

// a limbs < 2^54: the doubled and ×19/×38 factors stay < 2^60, and the
// columns are bounded as in Mul (t[0] is 77 products, t[4] is 5).
Fe Square(const Fe& a) {
  const uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const uint64_t d0 = 2 * a0, d1 = 2 * a1, d2 = 2 * a2, d3 = 2 * a3;
  const uint64_t a3_19 = 19 * a3, a4_19 = 19 * a4;
  u128 t[5] = {M(a0, a0) + M(d1, a4_19) + M(d2, a3_19),
               M(d0, a1) + M(d2, a4_19) + M(a3, a3_19),
               M(d0, a2) + M(a1, a1) + M(d3, a4_19),
               M(d0, a3) + M(d1, a2) + M(a4, a4_19),
               M(d0, a4) + M(d1, a3) + M(a2, a2)};
  return CarryWide(t);
}

Fe SquareN(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = Square(a);
  return a;
}

// a limbs < 2^54: products < 2^71. Returns a tight element.
Fe Mul121665(const Fe& a) {
  u128 t[5];
  for (int i = 0; i < 5; ++i) t[i] = M(a.v[i], 121665);
  return CarryWide(t);
}

// z^(p-2) = z^(2^255 - 21) by the usual addition chain (254 squarings,
// 11 multiplications); z = 0 gives 0.
Fe Invert(const Fe& z) {
  const Fe z2 = Square(z);
  const Fe z9 = Mul(SquareN(z2, 2), z);
  const Fe z11 = Mul(z9, z2);
  const Fe z_5_0 = Mul(Square(z11), z9);  // z^(2^5 - 1)
  const Fe z_10_0 = Mul(SquareN(z_5_0, 5), z_5_0);
  const Fe z_20_0 = Mul(SquareN(z_10_0, 10), z_10_0);
  const Fe z_40_0 = Mul(SquareN(z_20_0, 20), z_20_0);
  const Fe z_50_0 = Mul(SquareN(z_40_0, 10), z_10_0);
  const Fe z_100_0 = Mul(SquareN(z_50_0, 50), z_50_0);
  const Fe z_200_0 = Mul(SquareN(z_100_0, 100), z_100_0);
  const Fe z_250_0 = Mul(SquareN(z_200_0, 50), z_50_0);
  return Mul(SquareN(z_250_0, 5), z11);  // 2^255 - 2^5 + 11
}

// Propagates carries limb to limb; the carry out of v[4] (bit 255) comes back
// as fold * carry: 19 reduces mod p, 0 drops it.
void Carry(Fe& a, uint64_t fold) {
  for (int i = 0; i < 4; ++i) {
    a.v[i + 1] += a.v[i] >> 51;
    a.v[i] &= kMask51;
  }
  a.v[0] += fold * (a.v[4] >> 51);
  a.v[4] &= kMask51;
}

// a tight. Two carry passes leave limbs < 2^51 (value < 2^255 < 2p); adding
// 19 then tells whether the value is >= p, and subtracting p is adding 19
// and dropping bit 255. The output is the canonical encoding.
void ToBytes(uint8_t* out, Fe a) {
  Carry(a, 19);
  Carry(a, 19);
  uint64_t q = (a.v[0] + 19) >> 51;
  for (int i = 1; i < 5; ++i) q = (a.v[i] + q) >> 51;
  a.v[0] += 19 * q;
  Carry(a, 0);
  const uint64_t w[4] = {a.v[0] | (a.v[1] << 51), (a.v[1] >> 13) | (a.v[2] << 38),
                         (a.v[2] >> 26) | (a.v[3] << 25),
                         (a.v[3] >> 39) | (a.v[4] << 12)};
  for (int i = 0; i < 32; ++i) out[i] = static_cast<uint8_t>(w[i / 8] >> (8 * (i % 8)));
}

// Constant-time swap of a and b when bit == 1.
void CSwap(Fe& a, Fe& b, uint64_t bit) {
  const uint64_t mask = 0 - bit;
  for (int i = 0; i < 5; ++i) {
    const uint64_t x = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= x;
    b.v[i] ^= x;
  }
}
}  // namespace

X25519Key X25519(const X25519Key& scalar, const X25519Key& point) {
  uint8_t k[32];
  std::memcpy(k, scalar.data(), 32);
  // RFC 7748 clamping.
  k[0] &= 248;
  k[31] = (k[31] & 127) | 64;

  // RFC 7748 §5 Montgomery ladder; the swap is deferred so each iteration
  // swaps once, by (this bit XOR previous bit).
  const Fe x1 = FromBytes(point.data());
  Fe x2{{1}}, z2{}, x3 = x1, z3{{1}};
  uint64_t swap = 0;
  for (int t = 254; t >= 0; --t) {
    const uint64_t bit = (k[t >> 3] >> (t & 7)) & 1;
    swap ^= bit;
    CSwap(x2, x3, swap);
    CSwap(z2, z3, swap);
    swap = bit;
    // x2, z2, x3, z3 are tight here; sums and differences are < 2^53.
    const Fe a = Add(x2, z2), b = Sub(x2, z2);
    const Fe aa = Square(a), bb = Square(b);
    const Fe e = Sub(aa, bb);
    const Fe c = Add(x3, z3), d = Sub(x3, z3);
    const Fe da = Mul(d, a), cb = Mul(c, b);
    x3 = Square(Add(da, cb));
    z3 = Mul(x1, Square(Sub(da, cb)));
    x2 = Mul(aa, bb);
    z2 = Mul(e, Add(aa, Mul121665(e)));
  }
  CSwap(x2, x3, swap);
  CSwap(z2, z3, swap);

  X25519Key out;
  ToBytes(out.data(), Mul(x2, Invert(z2)));
  return out;
}

X25519Key X25519Base(const X25519Key& scalar) {
  X25519Key base{};
  base[0] = 9;
  return X25519(scalar, base);
}

X25519KeyPair GenerateX25519KeyPair() {
  X25519KeyPair kp;
  Bytes priv = RandomBytes(kX25519KeySize);
  std::memcpy(kp.private_key.data(), priv.data(), kX25519KeySize);
  kp.private_key[0] &= 248;
  kp.private_key[31] = (kp.private_key[31] & 127) | 64;
  kp.public_key = X25519Base(kp.private_key);
  return kp;
}

Result<Bytes> X25519SharedSecret(const X25519Key& private_key,
                                 const X25519Key& peer_public) {
  X25519Key shared = X25519(private_key, peer_public);
  uint8_t acc = 0;
  for (uint8_t byte : shared) acc |= byte;
  if (acc == 0) {
    return Status::Unauthenticated("X25519 produced all-zero shared secret");
  }
  return Bytes(shared.begin(), shared.end());
}

}  // namespace sesemi::crypto
