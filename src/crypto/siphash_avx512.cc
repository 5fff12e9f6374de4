/**
 * @file
 * AVX-512VL SipHash backend: the four-lane kernel of
 * src/crypto/siphash_avx2.cc built a second time, with -mavx512f
 * -mavx512vl, so that its rotates are single vprolq instructions.
 */

#define MORPH_SIPHASH_AVX512 1
#include "crypto/siphash_avx2.cc"
