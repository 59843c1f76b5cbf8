#include <gtest/gtest.h>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"
#include "src/gf/gf2.hpp"
#include "src/gf/gf256.hpp"
#include "src/gf/tower.hpp"

namespace sca::gf {
namespace {

// --- GF(2^8), AES representation ---------------------------------------------

TEST(Gf256, KnownProducts) {
  // FIPS-197 examples.
  EXPECT_EQ(gf256_mul(0x57, 0x13), 0xFE);
  EXPECT_EQ(gf256_mul(0x57, 0x83), 0xC1);
  EXPECT_EQ(gf256_mul(0x02, 0x80), 0x1B);  // xtime overflow case
}

TEST(Gf256, MultiplicationIsCommutative) {
  common::Xoshiro256 rng(1);
  for (int i = 0; i < 2000; ++i) {
    const std::uint8_t a = rng.byte(), b = rng.byte();
    EXPECT_EQ(gf256_mul(a, b), gf256_mul(b, a));
  }
}

TEST(Gf256, MultiplicationIsAssociative) {
  common::Xoshiro256 rng(2);
  for (int i = 0; i < 2000; ++i) {
    const std::uint8_t a = rng.byte(), b = rng.byte(), c = rng.byte();
    EXPECT_EQ(gf256_mul(gf256_mul(a, b), c), gf256_mul(a, gf256_mul(b, c)));
  }
}

TEST(Gf256, DistributesOverXor) {
  common::Xoshiro256 rng(3);
  for (int i = 0; i < 2000; ++i) {
    const std::uint8_t a = rng.byte(), b = rng.byte(), c = rng.byte();
    EXPECT_EQ(gf256_mul(a, b ^ c),
              static_cast<std::uint8_t>(gf256_mul(a, b) ^ gf256_mul(a, c)));
  }
}

TEST(Gf256, OneIsIdentityZeroAnnihilates) {
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(gf256_mul(static_cast<std::uint8_t>(a), 1), a);
    EXPECT_EQ(gf256_mul(static_cast<std::uint8_t>(a), 0), 0);
  }
}

TEST(Gf256, InverseIsExhaustivelyCorrect) {
  EXPECT_EQ(gf256_inv(0), 0);  // AES convention
  for (unsigned a = 1; a < 256; ++a) {
    const std::uint8_t inv = gf256_inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(gf256_mul(static_cast<std::uint8_t>(a), inv), 1) << "a=" << a;
  }
}

TEST(Gf256, ZeroAndOneAreTheirOwnInverses) {
  // The property the Kronecker-delta zero-mapping trick relies on:
  // (z XOR x)^-1 XOR z == x^-1 for z = [x == 0].
  EXPECT_EQ(gf256_inv(0x00), 0x00);
  EXPECT_EQ(gf256_inv(0x01), 0x01);
  for (unsigned x = 0; x < 256; ++x) {
    const std::uint8_t z = (x == 0) ? 1 : 0;
    const std::uint8_t mapped = static_cast<std::uint8_t>(x ^ z);
    EXPECT_EQ(static_cast<std::uint8_t>(gf256_inv(mapped) ^ z),
              gf256_inv(static_cast<std::uint8_t>(x)))
        << "x=" << x;
  }
}

TEST(Gf256, PowMatchesRepeatedMul) {
  common::Xoshiro256 rng(4);
  for (int i = 0; i < 200; ++i) {
    const std::uint8_t a = rng.byte();
    std::uint8_t expect = 1;
    for (unsigned n = 0; n < 16; ++n) {
      EXPECT_EQ(gf256_pow(a, n), expect) << "a=" << int(a) << " n=" << n;
      expect = gf256_mul(expect, a);
    }
  }
}

TEST(Gf256, GeneratorDetection) {
  // 0x03 is the classic AES generator; 0x01 has order 1; 0x00 is not in the
  // multiplicative group at all.
  EXPECT_TRUE(gf256_is_generator(0x03));
  EXPECT_FALSE(gf256_is_generator(0x01));
  EXPECT_FALSE(gf256_is_generator(0x00));
  // Count: GF(256)* has phi(255) = 128 generators.
  int generators = 0;
  for (unsigned g = 0; g < 256; ++g)
    if (gf256_is_generator(static_cast<std::uint8_t>(g))) ++generators;
  EXPECT_EQ(generators, 128);
}

// --- GF(2) linear algebra -----------------------------------------------------

TEST(BitMatrix, IdentityActsTrivially) {
  const BitMatrix id = BitMatrix::identity(8);
  for (unsigned x = 0; x < 256; ++x) EXPECT_EQ(id.apply(x), x);
}

TEST(BitMatrix, ApplyMatchesManualDotProduct) {
  BitMatrix m(3, 3);
  m.set(0, 1, true);          // y0 = x1
  m.set(1, 0, true);          // y1 = x0 ^ x2
  m.set(1, 2, true);
  m.set(2, 2, true);          // y2 = x2
  EXPECT_EQ(m.apply(0b001), 0b010u);
  EXPECT_EQ(m.apply(0b100), 0b110u);
  EXPECT_EQ(m.apply(0b101), 0b100u);
}

TEST(BitMatrix, MultiplyComposesWithApply) {
  common::Xoshiro256 rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    BitMatrix a(8, 8), b(8, 8);
    for (std::size_t r = 0; r < 8; ++r) {
      a.set_row(r, rng.byte());
      b.set_row(r, rng.byte());
    }
    const BitMatrix ab = a * b;
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t x = rng.byte();
      EXPECT_EQ(ab.apply(x), a.apply(b.apply(x)));
    }
  }
}

TEST(BitMatrix, InverseRoundTrips) {
  common::Xoshiro256 rng(6);
  int tested = 0;
  while (tested < 20) {
    BitMatrix m(8, 8);
    for (std::size_t r = 0; r < 8; ++r) m.set_row(r, rng.byte());
    if (!m.invertible()) continue;
    ++tested;
    const BitMatrix inv = m.inverse();
    EXPECT_EQ(m * inv, BitMatrix::identity(8));
    EXPECT_EQ(inv * m, BitMatrix::identity(8));
  }
}

TEST(BitMatrix, SingularMatrixThrows) {
  BitMatrix m(4, 4);  // zero matrix
  EXPECT_FALSE(m.invertible());
  EXPECT_THROW(m.inverse(), common::Error);
}

TEST(BitMatrix, RankExamples) {
  EXPECT_EQ(BitMatrix::identity(7).rank(), 7u);
  BitMatrix m(3, 3);
  m.set_row(0, 0b011);
  m.set_row(1, 0b110);
  m.set_row(2, 0b101);  // row2 = row0 ^ row1
  EXPECT_EQ(m.rank(), 2u);
}

TEST(BitMatrix, TransposeInvolution) {
  common::Xoshiro256 rng(7);
  BitMatrix m(5, 9);
  for (std::size_t r = 0; r < 5; ++r) m.set_row(r, rng.next() & 0x1FF);
  const BitMatrix t = m.transpose();
  EXPECT_EQ(t.rows(), 9u);
  EXPECT_EQ(t.cols(), 5u);
  EXPECT_EQ(t.transpose(), m);
}

TEST(BitMatrix, MatrixFromColumns) {
  const BitMatrix m = matrix_from_columns(3, {0b001, 0b010, 0b100});
  EXPECT_EQ(m, BitMatrix::identity(3));
}

// --- Tower field ----------------------------------------------------------------

TEST(TowerGf4, MulTableIsAField) {
  // Check the 4-element field axioms exhaustively.
  for (std::uint8_t a = 0; a < 4; ++a) {
    EXPECT_EQ(gf4_mul(a, 1), a);
    EXPECT_EQ(gf4_mul(a, 0), 0);
    for (std::uint8_t b = 0; b < 4; ++b) {
      EXPECT_EQ(gf4_mul(a, b), gf4_mul(b, a));
      for (std::uint8_t c = 0; c < 4; ++c)
        EXPECT_EQ(gf4_mul(gf4_mul(a, b), c), gf4_mul(a, gf4_mul(b, c)));
    }
  }
}

TEST(TowerGf4, SquareAndInverse) {
  for (std::uint8_t a = 0; a < 4; ++a) {
    EXPECT_EQ(gf4_sq(a), gf4_mul(a, a));
    if (a != 0) {
      EXPECT_EQ(gf4_mul(a, gf4_inv(a)), 1);
    }
  }
  EXPECT_EQ(gf4_inv(0), 0);
}

TEST(TowerGf4, MulByWMatchesGeneralMul) {
  for (std::uint8_t a = 0; a < 4; ++a) EXPECT_EQ(gf4_mul_w(a), gf4_mul(a, 0b10));
}

TEST(TowerGf16, FieldAxiomsExhaustive) {
  for (std::uint8_t a = 0; a < 16; ++a) {
    EXPECT_EQ(gf16_mul(a, 1), a);
    EXPECT_EQ(gf16_mul(a, 0), 0);
    EXPECT_EQ(gf16_sq(a), gf16_mul(a, a));
    if (a != 0) {
      EXPECT_EQ(gf16_mul(a, gf16_inv(a)), 1);
    }
    for (std::uint8_t b = 0; b < 16; ++b)
      EXPECT_EQ(gf16_mul(a, b), gf16_mul(b, a));
  }
  EXPECT_EQ(gf16_inv(0), 0);
}

TEST(TowerGf16, LambdaMultiplier) {
  for (std::uint8_t a = 0; a < 16; ++a)
    EXPECT_EQ(gf16_mul_lambda(a), gf16_mul(a, kLambda));
}

TEST(TowerGf256, InverseExhaustive) {
  EXPECT_EQ(tower_inv(0), 0);
  for (unsigned a = 1; a < 256; ++a)
    EXPECT_EQ(tower_mul(static_cast<std::uint8_t>(a),
                        tower_inv(static_cast<std::uint8_t>(a))),
              1)
        << "a=" << a;
}

TEST(TowerGf256, IsomorphismIsMultiplicativeExhaustively) {
  const TowerContext& ctx = TowerContext::instance();
  for (unsigned a = 0; a < 256; ++a)
    for (unsigned b = 0; b < 256; b += 7) {  // stride keeps runtime sane
      const std::uint8_t lhs = ctx.aes_to_tower(
          gf256_mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)));
      const std::uint8_t rhs =
          tower_mul(ctx.aes_to_tower(static_cast<std::uint8_t>(a)),
                    ctx.aes_to_tower(static_cast<std::uint8_t>(b)));
      EXPECT_EQ(lhs, rhs) << "a=" << a << " b=" << b;
    }
}

TEST(TowerGf256, IsomorphismRoundTrips) {
  const TowerContext& ctx = TowerContext::instance();
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(ctx.tower_to_aes(ctx.aes_to_tower(static_cast<std::uint8_t>(a))),
              a);
  }
}

TEST(TowerGf256, InversionCommutesWithIsomorphism) {
  // This is the exact property the masked Sbox's local inverter depends on:
  // invert in the tower, map back, and you get AES-representation inversion.
  const TowerContext& ctx = TowerContext::instance();
  for (unsigned a = 0; a < 256; ++a) {
    const std::uint8_t via_tower = ctx.tower_to_aes(
        tower_inv(ctx.aes_to_tower(static_cast<std::uint8_t>(a))));
    EXPECT_EQ(via_tower, gf256_inv(static_cast<std::uint8_t>(a))) << "a=" << a;
  }
}

}  // namespace
}  // namespace sca::gf
