#include "crypto/rsa.h"

#include "crypto/prime.h"
#include "crypto/sha256.h"
#include "util/binary_io.h"

namespace sharoes::crypto {

namespace {

// DER prefix of a SHA-256 DigestInfo (RFC 8017 §9.2 note 1).
constexpr uint8_t kSha256DigestInfoPrefix[] = {
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01,
    0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04, 0x20};

// RSA private operation with CRT: m = c^d mod n.
BigInt PrivateOp(const RsaPrivateKey& k, const BigInt& c) {
  BigInt m1 = BigInt::ModExp(BigInt::Mod(c, k.p), k.dp, k.p);
  BigInt m2 = BigInt::ModExp(BigInt::Mod(c, k.q), k.dq, k.q);
  // h = qinv * (m1 - m2) mod p
  BigInt diff;
  if (m1.Compare(m2) >= 0) {
    diff = BigInt::Sub(m1, m2);
  } else {
    diff = BigInt::Sub(BigInt::Add(m1, k.p), BigInt::Mod(m2, k.p));
    diff = BigInt::Mod(diff, k.p);
  }
  BigInt h = BigInt::ModMul(k.qinv, diff, k.p);
  return BigInt::Add(m2, BigInt::Mul(h, k.q));
}

BigInt PublicOp(const RsaPublicKey& k, const BigInt& m) {
  return BigInt::ModExp(m, k.e, k.n);
}

}  // namespace

Bytes RsaPublicKey::Serialize() const {
  BinaryWriter w;
  w.PutBytes(n.ToBytes());
  w.PutBytes(e.ToBytes());
  return w.Take();
}

Result<RsaPublicKey> RsaPublicKey::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  RsaPublicKey k;
  k.n = BigInt::FromBytes(r.GetBytes());
  k.e = BigInt::FromBytes(r.GetBytes());
  SHAROES_RETURN_IF_ERROR(r.Finish("rsa public key"));
  if (k.n.IsZero() || k.e.IsZero()) {
    return Status::Corruption("rsa public key with zero component");
  }
  return k;
}

Bytes RsaPrivateKey::Serialize() const {
  // Compact form: (e, p, q). Everything else is recomputed on load; this
  // matters because signing keys travel inside metadata objects and
  // directory rows, so their serialized size is on the wire constantly.
  BinaryWriter w;
  w.PutBytes(e.ToBytes());
  w.PutBytes(p.ToBytes());
  w.PutBytes(q.ToBytes());
  return w.Take();
}

Result<RsaPrivateKey> RsaPrivateKey::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  RsaPrivateKey k;
  k.e = BigInt::FromBytes(r.GetBytes());
  k.p = BigInt::FromBytes(r.GetBytes());
  k.q = BigInt::FromBytes(r.GetBytes());
  SHAROES_RETURN_IF_ERROR(r.Finish("rsa private key"));
  if (k.e.IsZero() || k.p.IsZero() || k.q.IsZero()) {
    return Status::Corruption("rsa private key with zero component");
  }
  k.n = BigInt::Mul(k.p, k.q);
  BigInt p1 = BigInt::Sub(k.p, BigInt(1));
  BigInt q1 = BigInt::Sub(k.q, BigInt(1));
  if (!BigInt::ModInverse(k.e, BigInt::Mul(p1, q1), &k.d)) {
    return Status::Corruption("rsa private key: e not invertible");
  }
  k.dp = BigInt::Mod(k.d, p1);
  k.dq = BigInt::Mod(k.d, q1);
  if (!BigInt::ModInverse(k.q, k.p, &k.qinv)) {
    return Status::Corruption("rsa private key: q not invertible mod p");
  }
  return k;
}

RsaKeyPair GenerateRsaKeyPair(size_t bits, Rng& rng) {
  BigInt e(65537);
  for (;;) {
    BigInt p = GeneratePrime(bits / 2, rng);
    BigInt q = GeneratePrime(bits - bits / 2, rng);
    if (p == q) continue;
    if (p < q) std::swap(p, q);  // Keep p > q for the CRT recombination.
    BigInt n = BigInt::Mul(p, q);
    if (n.BitLength() != bits) continue;
    BigInt p1 = BigInt::Sub(p, BigInt(1));
    BigInt q1 = BigInt::Sub(q, BigInt(1));
    BigInt phi = BigInt::Mul(p1, q1);
    BigInt d;
    if (!BigInt::ModInverse(e, phi, &d)) continue;  // gcd(e, phi) != 1.
    RsaPrivateKey priv;
    priv.n = n;
    priv.e = e;
    priv.d = d;
    priv.p = p;
    priv.q = q;
    priv.dp = BigInt::Mod(d, p1);
    priv.dq = BigInt::Mod(d, q1);
    if (!BigInt::ModInverse(q, p, &priv.qinv)) continue;
    return RsaKeyPair{priv.PublicKey(), priv};
  }
}

Result<Bytes> RsaEncryptBlock(const RsaPublicKey& pub, const Bytes& msg,
                              Rng& rng) {
  size_t k = pub.ModulusBytes();
  if (msg.size() > k - 11) {
    return Status::InvalidArgument("rsa message too long for one block");
  }
  // EB = 00 || 02 || PS (nonzero random) || 00 || msg.
  Bytes eb(k);
  eb[0] = 0x00;
  eb[1] = 0x02;
  size_t ps_len = k - 3 - msg.size();
  for (size_t i = 0; i < ps_len; ++i) {
    uint8_t b = 0;
    while (b == 0) b = static_cast<uint8_t>(rng.NextU64());
    eb[2 + i] = b;
  }
  eb[2 + ps_len] = 0x00;
  std::copy(msg.begin(), msg.end(), eb.begin() + 3 + ps_len);
  BigInt m = BigInt::FromBytes(eb);
  return PublicOp(pub, m).ToBytes(k);
}

Result<Bytes> RsaDecryptBlock(const RsaPrivateKey& priv, const Bytes& block) {
  size_t k = priv.ModulusBytes();
  if (block.size() != k) {
    return Status::CryptoError("rsa ciphertext block has wrong size");
  }
  BigInt c = BigInt::FromBytes(block);
  if (c.Compare(priv.n) >= 0) {
    return Status::CryptoError("rsa ciphertext out of range");
  }
  Bytes eb = PrivateOp(priv, c).ToBytes(k);
  if (eb[0] != 0x00 || eb[1] != 0x02) {
    return Status::CryptoError("rsa padding check failed");
  }
  size_t i = 2;
  while (i < k && eb[i] != 0x00) ++i;
  if (i < 10 || i == k) {
    return Status::CryptoError("rsa padding separator not found");
  }
  return Bytes(eb.begin() + i + 1, eb.end());
}

size_t RsaBlockCount(const RsaPublicKey& pub, size_t msg_len) {
  size_t chunk = pub.MaxMessageBytes();
  return (msg_len + chunk - 1) / chunk + (msg_len == 0 ? 1 : 0);
}

Result<Bytes> RsaEncrypt(const RsaPublicKey& pub, const Bytes& msg, Rng& rng) {
  size_t chunk = pub.MaxMessageBytes();
  Bytes out;
  size_t pos = 0;
  // Always emit at least one block so empty messages round-trip.
  do {
    size_t n = std::min(chunk, msg.size() - pos);
    Bytes part(msg.begin() + pos, msg.begin() + pos + n);
    SHAROES_ASSIGN_OR_RETURN(Bytes block, RsaEncryptBlock(pub, part, rng));
    Append(out, block);
    pos += n;
  } while (pos < msg.size());
  return out;
}

Result<Bytes> RsaDecrypt(const RsaPrivateKey& priv, const Bytes& ct) {
  size_t k = priv.ModulusBytes();
  if (ct.size() % k != 0 || ct.empty()) {
    return Status::CryptoError("rsa ciphertext not a whole number of blocks");
  }
  Bytes out;
  for (size_t pos = 0; pos < ct.size(); pos += k) {
    Bytes block(ct.begin() + pos, ct.begin() + pos + k);
    SHAROES_ASSIGN_OR_RETURN(Bytes part, RsaDecryptBlock(priv, block));
    Append(out, part);
  }
  return out;
}

Bytes RsaSign(const RsaPrivateKey& priv, const Bytes& msg) {
  size_t k = priv.ModulusBytes();
  Bytes digest = Sha256Digest(msg);
  // EB = 00 || 01 || FF..FF || 00 || DigestInfo.
  Bytes info(kSha256DigestInfoPrefix,
             kSha256DigestInfoPrefix + sizeof(kSha256DigestInfoPrefix));
  Append(info, digest);
  Bytes eb(k, 0xFF);
  eb[0] = 0x00;
  eb[1] = 0x01;
  eb[k - info.size() - 1] = 0x00;
  std::copy(info.begin(), info.end(), eb.end() - info.size());
  BigInt m = BigInt::FromBytes(eb);
  return PrivateOp(priv, m).ToBytes(k);
}

bool RsaVerify(const RsaPublicKey& pub, const Bytes& msg, const Bytes& sig) {
  size_t k = pub.ModulusBytes();
  if (sig.size() != k) return false;
  BigInt s = BigInt::FromBytes(sig);
  if (s.Compare(pub.n) >= 0) return false;
  Bytes eb = PublicOp(pub, s).ToBytes(k);
  // Rebuild the expected encoding and compare in full.
  Bytes digest = Sha256Digest(msg);
  Bytes info(kSha256DigestInfoPrefix,
             kSha256DigestInfoPrefix + sizeof(kSha256DigestInfoPrefix));
  Append(info, digest);
  if (eb.size() < info.size() + 11) return false;
  Bytes expected(k, 0xFF);
  expected[0] = 0x00;
  expected[1] = 0x01;
  expected[k - info.size() - 1] = 0x00;
  std::copy(info.begin(), info.end(), expected.end() - info.size());
  return ConstantTimeEquals(eb, expected);
}

}  // namespace sharoes::crypto
