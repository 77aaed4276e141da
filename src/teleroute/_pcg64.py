"""numpy.random.default_rng(seed)'s draws in plain Python, bit for bit.

The package's random generators draw from numpy when numpy is already
loaded and from this module otherwise, so a process that never needs
numpy never pays for its import. Only the draws the package makes are
here: SeedSequence pool mixing and PCG64 seeding for a nonnegative int
seed, and Generator.random, uniform, scalar integers and
standard_exponential with numpy's algorithms and rounding:

- PCG64 is O'Neill's permuted congruential generator (HMC-CS-2014-0905)
  with the 128-bit LCG step and the XSL-RR output.
- random() is (next64 >> 11) * 2**-53; uniform(lo, hi) is
  lo + (hi - lo) * random().
- integers(lo, hi) maps ranges of up to 2**32 values, the widest the
  package draws, through Lemire's method on 32-bit outputs, each 64-bit
  output giving two of them (the generator keeps the unused high half
  for the next 32-bit draw).
- standard_exponential is the 256-level ziggurat of Marsaglia and Tsang
  (J. Stat. Softw. 5(8), 2000). Its tables fe, we and ke below are
  numpy's (numpy/random/src/distributions/ziggurat_constants.h, BSD-3,
  copyright NumPy Developers), as the bytes of 256 little-endian
  doubles, 256 doubles and 256 uint64 words.

The tests compare every draw here with numpy's.
"""

from __future__ import annotations

import math
import struct

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
# PCG's default 128-bit LCG multiplier
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# SeedSequence's hash and mix constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
# the ziggurat's rightmost level, where the tail begins
_ZIGGURAT_R = 7.69711747013104972


def _mix(x: int, y: int) -> int:
    m = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
    return m ^ (m >> 16)


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64): the seed's 32-bit
    words, least significant first, hashed into a pool of four words and
    stretched to four 64-bit words."""
    words = [seed & _M32]
    while seed := seed >> 32:
        words.append(seed & _M32)
    h = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = (h * _MULT_A) & _M32
        value = (value * h) & _M32
        return value ^ (value >> 16)

    pool = [hashmix(w) for w in (words + [0] * _POOL_SIZE)[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(w))
    h = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ h
        h = (h * _MULT_B) & _M32
        value = (value * h) & _M32
        state.append(value ^ (value >> 16))
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class _Floats(list):
    """A list of draws with ndarray's tolist, which the package calls."""

    __slots__ = ()

    def tolist(self) -> list[float]:
        return self


class Generator:
    """default_rng(seed) for a nonnegative int seed."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_words(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self._state = ((self._inc + (s0 << 64 | s1)) * _MULT + self._inc) & _M128
        # the high half of the last 64-bit output, kept for the next
        # 32-bit draw, or None
        self._half = None

    def _next64(self) -> int:
        s = self._state = (self._state * _MULT + self._inc) & _M128
        x = ((s >> 64) ^ s) & _M64
        r = s >> 122
        return ((x >> r) | (x << (64 - r))) & _M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def random(self, n: int) -> _Floats:
        """n uniform draws on [0, 1)."""
        return _Floats((self._next64() >> 11) * 2.0**-53 for _ in range(n))

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * ((self._next64() >> 11) * 2.0**-53)

    def integers(self, low: int, high: int) -> int:
        """One integer drawn uniformly from [low, high), high - low <= 2**32."""
        size = high - low
        if not 1 <= size <= 1 << 32:
            raise ValueError(f"[{low}, {high}) is empty or wider than 2**32")
        if size == 1:
            return low
        if size == 1 << 32:
            return low + self._next32()
        # Lemire: the high 32 bits of word * size, redrawn while the low
        # 32 bits fall below 2**32 mod size
        threshold = (1 << 32) % size
        m = self._next32() * size
        while (m & _M32) < threshold:
            m = self._next32() * size
        return low + (m >> 32)

    def standard_exponential(self, n: int) -> _Floats:
        """n draws from the unit exponential, by the ziggurat."""
        return _Floats(self._exponential() for _ in range(n))

    def _exponential(self) -> float:
        while True:
            ri = self._next64() >> 3
            level = ri & 0xFF
            ri >>= 8
            x = ri * _WE[level]
            if ri < _KE[level]:
                return x
            u = (self._next64() >> 11) * 2.0**-53
            if level == 0:
                return _ZIGGURAT_R - math.log1p(-u)
            if (_FE[level - 1] - _FE[level]) * u + _FE[level] < math.exp(-x):
                return x


# fe, we and ke, 2048 bytes each
_TABLES = bytes.fromhex(
    "000000000000f03f371188e54505ee3ff1ff8150a6d0ec3f277beb7b00e5eb3f2a7fe60e0f21eb3fe7fa62a5ba76ea3f9b6d551597dee93f"
    "39aa55c43154e93f2fd2d376a3d4e83fb8c50678e85de83f2631242d8aeee73f7ed4099b6e85e73f634ba95bbb21e73fc6188449c3c2e63f"
    "065c4f6dfa67e63f66afa7c1ed10e63f75ac4c693dbde53f7387da82986ce53f9a897815ba1ee53faff851c166d3e43f69e08efb6a8ae43f"
    "25e1a8af9943e43f808bb12bcbfee33f14d1e144dcbbe33fd9dd08a7ad7ae33f18630e45233be33f5eda45e323fde23f244f1fb698c0e23f"
    "bd3211116d85e23fa3508c228e4be23fc83e81baea12e23f897b871973dbe13f253b1ec718a5e13fee6fce6dce6fe13f9c1633bc873be13f"
    "8dc31c4a3908e13f2b1e2b81d8d5e03f2ad054885ba4e03f7d3bee31b973e03f4865d2ebe843e03f24f360b1e214e03f764521fe3dcddf3f"
    "fac5bf8e2d72df3f4d42ebd18618df3f909d964b3dc0de3f51d37d364569de3ffc37e1759313de3f0c21a7881dbfdd3f7aedb97dd96bdd3f"
    "0b1a7ee9bd19dd3f92e040dcc1c8dc3f60fb83d9dc78dc3f83a50ed0062adc3fb5eeae1238dcdb3f880b9951698fdb3f6f8054949343db3f"
    "5fef2834b0f8da3fe5f6fdd6b8aeda3f4001a36aa765da3ff4217520761dda3f92375a691fd6d93fa87b09f29d8fd93f10819a9fec49d93f"
    "045d548c0605d93f395db704e7c0d83f8c3fbc84897dd83f386144b5e93ad83f59ceb66903f9d73f1e80c69dd2b7d73fe3725e735377d73f"
    "ea8db0308237d73f9d9e643e5bf8d63f9ce9e425dbb9d63f9f0dc68ffe7bd63fe4274842c23ed63f7658ef1f2302d63f6cee31261ec6d53f"
    "efa93a6cb08ad53fe7a3bd21d74fd53ff589de8d8f15d53f1df9260ed7dbd43fd3da8b15aba2d43fefbe802b096ad43fe24118ebee31d43f"
    "4ea130025afad33f85b2ab3048c3d33fef7db147b78cd33fddd0fc28a556d33f352431c60f21d33f70423920f5ebd23f6222ae4653b7d23f"
    "297645572883d23ffd76477d724fd23fff7e0bf12f1cd23fdb097bf75ee9d13f5abc9ae1fdb6d13f8219190c0b85d13fef91e2de8453d13f"
    "ba9fbacc6922d13f6ca6d952b8f1d03f33538ff86ec1d03f133ee94e8c91d03fd2905df00e62d03f2c7c7980f532d03f6a4793ab3e04d03f"
    "5493ff4cd2abcf3f7e3e965ce74fcf3f9be0e80fbaf4ce3ff2405900489ace3fa7832fd68e40ce3f394f22488ce7cd3fb8eee31a3e8fcd3f"
    "fd31b420a237cd3f9fd0f638b6e0cc3f0218ce4f788acc3feeafb95de634cc3f35443967fedfcb3fa5e4727cbe8bcb3f3eefdcb82438cb3f"
    "0b5beb422fe5ca3f493cc04bdc92ca3fbc5cdf0e2a41ca3f12c5e4d116f0c93f23163ee4a09fc93fa192e69ec64fc93f79bb25648600c93f"
    "d562509fdeb1c83ff91a8cc4cd63c83fe6e794505216c83fae1b85c86ac9c73ffe469fb9157dc73f39281ab95131c73fea84ee631de6c63f"
    "28daa65e779bc63facd130555e51c63f316ab0fad007c63fb6c25409cebec53ff5782e425476c53f498c076d622ec53ffab63c58f7e6c43f"
    "963098d811a0c43fc6cc2dc9b059c43f9a6a380bd313c43f05a9f88577cec33fc9d594269d89c33faf0cfadf4245c33f6e7dbeaa6701c33f"
    "34cf04850abec23f409960722a7bc23f78e8bb7bc638c23f65ca3dafddf6c13f66d631206fb5c13f78aef0e67974c13f2f71c920fd33c13f"
    "2017eceff7f3c03f2fb6547b69b4c03fbea5b7ee5075c03f047f6e7aad36c03f8deacba6fcf0bf3f140419668575bf3f3cc383aef3fabe3f"
    "ccb98e044681be3ffbba61f57a08be3f9893ad169190bd3fd74d91068719bd3f57fd806b5ba3bc3faf102ef40c2ebc3f8f2671579ab9bb3f"
    "486535540246bb3f655465b143d3ba3fb738d93d5d61ba3f28f446d04df0b93f706b33471480b93fb974e588af10b93f3b535a831ea2b83f"
    "bac43b2c6034b83ff3a6d78073c7b73f1e3c1986575bb73fb61684480bf0b63f20b630dc8d85b63ff7deca5cde1bb63f3ebb91edfbb2b53f"
    "36d059b9e54ab53f29d990f29ae3b43f5c9843d31a7db43f0eb1259d6417b43f9e9f9b9977b2b33f18e7c619534eb33fd18d9476f6eab23f"
    "7005ce106188b23f8c9d2c519226b23f40a36fa889c5b13f9253758f4665b13f50ca5687c805b13f3b1b87190fa7b03f17c8f5d71949b03f"
    "769669bad0d7af3f34e84499f41eaf3fe5b22ea59e67ae3f10583149ceb1ad3f4a791e0383fdac3fe9210764bc4aac3f85d9be107a99ab3f"
    "84806ac2bbe9aa3f38f11b47813baa3f4c7c7b82ca8ea93f6d77806e97e3a83f6b393a1ce839a83f9e08abb4bc91a73f52afb67915eba63f"
    "41a026c7f245a63fcad2c51355a2a53febc596f23c00a53f196b2614ab5fa43fff18ff47a0c0a33fae143f7e1d23a33f0cc056c92387a23f"
    "d412f35fb4eca13fa1b3199fd053a13f51d67c0c7abca03feefa0d59b226a03f9098afc7f6249f3f6874517aaeff9d3f0c1b335490dd9c3f"
    "7058fa50a1be9b3f9b4e92e6e6a29a3f482a130f678a993f6799ec532875983f96fc87da3163973f7740a2728b54963f5102aba63d49953f"
    "bef087ce5141943f845d3125d23c933f323ab9e1c93b923f5f5f7254453e913ff0021e095244903fcec789defd9b8e3f57276e14b9b68c3f"
    "2dc94255fad88a3fbda78f68ea02893ff574aae6b634873fcb16e40b936e853f626f51c1b8b0833f7176b3ed69fb813ff9d75f29f24e803f"
    "c55d74fa51577d3f364897d4e9237a3f2036ec379f04773ffd22e3ce97fa733f434057693d07713f114bcd81b3586c3ffffea1f388d8663f"
    "24a3e1a86b94613f253e0c54b52b593fb9fc8df70ab24f3f4b0b9f321cc33d3fc15dbf94ec64d13c19415d8b9d58603c2b4d5b49b2d66a3c"
    "ba8d5ba93593713c732a4ae5e622753c807ac2fb9050783cccb779efd1387b3c98bd6db7d8ec7d3c3c5cc649f03b803c70f6d624db70813c"
    "3326da900298823cca6e3dfe88b3833c21fe0bc615c5843cc34a029df8cd853cbd2ba7f040cf863c19d017dacdc9873c6f60d35459be883c"
    "d237225580ad893c03525dbec8978a3cc4a3dddda57d8b3c893f8cd77b5f8c3c367cf14da23d8d3c5a73f17866188e3caa4f5fcf0cf08e3c"
    "0932685dd2c48f3c58756aed764b903cfc809b4748b3903caff54987f319913ca0df4beb8c7f913ce7493ee926e4913c2eff3865d247923c"
    "0b6823e19eaa923c4bda26a59a0c933c02826de2d26d933ca06221d153ce933c486770ca282e943c12e7355f5c8d943c930bcd6bf8eb943c"
    "4d6f7829064a953cfdbeb83d8ea7953ccf2eddc79804963ce0680c6d2d61963c44a9fa6253bd963cbb9079791119973c737907236e74973c"
    "72817e7c6fcf973c99d5fe531b2a983cece12b2f7784983c2ac5d05088de983c44a2fdbd5338993c3813ad42de91993cbf03ff752ceb993c"
    "4a8814be42449a3c61d29653259d9a3cc924f244d8f59a3c9b974c795f4e9b3c898f3fb3bea69b3c99fe5993f9fe9b3c9fd2709a13579c3c"
    "db5ac22b10af9c3cfbe6f08ef2069d3c8d6bd8f1bd5e9d3c5790426a75b69d3cfe317cf71b0e9e3c4410cf83b4659e3c621be2e541bd9e3c"
    "9f9402e2c6149f3cb5fe572b466c9f3ca1a90465c2c39f3cd93c9a119f0da03c62b10df65d39a03cf876721c1f65a03c72004bbbe390a03c"
    "37017103adbca03c662f7a207ce8a03c15ac17395214a13cbe7d706f3040a13cfb7f77e1176ca13c96233da90998a13c83523ddd06c4a13c"
    "e2c4a99010f0a13c050eb1d3271ca23c29a3c2b34d48a23c9f18d03b8374a23caacd8b74c9a0a23c5d3ba56421cda23c211703118cf9a23c"
    "1176fb7c0a26a33ca11b8aaa9d52a33cf01a859a467fa33cfcefcf4c06aca33c6d338dc0ddd8a33cc4094ff4cd05a43cd06c46e6d732a43c"
    "a76c7194fc5fa43cc483c8fc3c8da43ca4186b1d9abaa43cea45cbf414e8a43cfb00d981ae15a53cf8b52cc46743a53c276f31bc4171a53c"
    "f99c4e6b3d9fa53c359311d45bcda53c26cf56fa9dfba53c2e1a73e3042aa63c8c9b5c969158a63ceeebd31b4587a63cdf3c8d7e20b6a63c"
    "08a659cb24e5a63cfba950115314a73c1c04fa61ac43a73c30d177d13173a73c0a24b176e4a2a73cf7177d6bc5d2a73c7772ceccd502a83c"
    "2ae6dfba1633a83ce70861598963a83c540fa4cf2e94a83c9460cc4808c5a83c1315fef316f6a83ce1738e045c27a93c8a8235b2d858a93c"
    "f4bb40398e8aa93c5d03c7da7dbca93c51e9dddca8eea93c2d59d08a1021aa3c90c65635b653aa3c0ff3d0329b86aa3c7a6581dfc0b9aa3c"
    "ffacca9d28edaa3cb58b6ed6d320ab3c4225cff8c354ab3cb64f327bfa88ab3c102607db78bdab3c85fd2d9d40f2ab3c2de0424e5327ac3c"
    "a4b1ea82b25cac3cfb2323d85f92ac3c6ca595f35cc8ac3c8071ed83abfeac3cadf230414d35ad3cfea31eed436cad3c0aa58d5391a3ad3c"
    "7f35d24a37dbad3c9b5026b43713ae3c52a4167c944bae3c7f23f49a4f84ae3c78764a156bbdae3c68915bfce8f6ae3c7fbca06ecb30af3c"
    "d05e5198146baf3ce5e1efb3c6a5af3cd809dd0ae4e0af3cd411f97a370eb03c1b3911ef342cb03ca324929e6b4ab03cdb2611cfdc68b03c"
    "0fad3acf8987b03c19c833f773a6b03c6f9400a99cc5b03cb7cfef5005e5b03cceef0b66af04b13c4a15926a9c24b13c2b3a6feccd44b13c"
    "c104c4854565b13c9eae6fdd0486b13c2078a2a70da7b13c5a2a78a661c8b13c70339baa02eab13ca2f4f093f20bb23c50e54f52332eb23c"
    "ba3b40e6c650b23ca6dac761af73b23c2b5342e9ee96b23c51db45b487bab23c702d960e7cdeb23c65592659ce02b33cd0a72a0b8127b33c"
    "65c93bb3964cb33c56a88cf81172b33c4351349cf597b33c838b8d7a44beb33cd0dead8c01e5b33cadeef5e92f0cb43cf842bdc9d233b43c"
    "2cc91b85ed5bb43c3294d3988384b43c4ca15da798adb43c27b11c7b30d7b43c0895b9084f01b53cb2aaac71f82bb53c5aa7f8063157b53c"
    "61441b4cfd82b53c07e138fa61afb53c9ebd880364dcb53c79180897080ab63c942e7b245538b63c32f4c3604f67b63cee48974afd96b63c"
    "1e7b9a2f65c7b63c0725f4b18df8b63c18d25cce7d2ab73cc371bde23c5db73cf9716bb5d290b73cd376147d47c5b73c12146ee9a3fab73c"
    "c3bec02cf130b83c427368063968b83cab5b69ce85a0b83c95363b82e2d9b83c4475f3d25a14b93c0e2afc34fb4fb93cd81a8df1d08cb93c"
    "ead9243aeacab93c78f1493e560aba3c3b4ce843254bba3cea86adc2688dba3cc445d88233d1ba3c0ab603c09916bb3c0fea9150b15dbb3c"
    "5eda76d291a6bb3c77ef4bde54f1bb3ca7e0c241163ebc3cf4c8c842f48cbc3c7fa9f2ec0fdebc3cc538276b8d31bd3cec3bec6f9487bd3c"
    "9ff14eaf50e0bd3c6009196ef23bbe3cc183f32aaf9abe3c4aea5067c2fcbe3ca7f791976e62bf3ce5c6f643fecbbf3c2eec62b3e21cc03c"
    "ef8ef58b1156c03c4ea5cbcdc191c03ca0485d7831d0c03ca6924303a811c13c2a4475677856c13cd6c2b3bc039fc13c7cfac9a0bcebc13c"
    "9f9159b62b3dc23ca5aa49aef593c23cf011448ae3f0c23c5ef7cc27ee54c33c61b8c8c74ec1c33c6213e4669737c43cd15147cdd7b9c43c"
    "f673cf3cd84ac53cd21373e17aeec53c72bf4b6d67aac63c2fc6ead65087c73c19edf2e69f93c83c857b480ddce9c93cfc71da519ec3cb3c"
    "83bb7e29d9c9ce3cc697242714521c0000000000000000007e319cd75b7d1300103c3f8ef56e1800aeb00e32b79b1a007c4419f727d11b00"
    "1a65880f1d951c0072395c2dfe1b1d00b2186bd55b7e1d00702c17dd34c91d00c89dacdf09041e003678d4717b331e00a2b77c178b5a1e00"
    "6c046f09427b1e003eae08af0d971e009ef04eb1f5ae1e005665b407bdc31e00ce9987f0f6d51e0088566eae14e61e00d01c36ca6ef41e00"
    "a4d4dd764b011f00b696a713e30c1f007af7f16963171f007025450cf2201f0074a85119ae291f003255b98fb1311f0006c1575112391f00"
    "4c696eebe23f1f00fa88d73233461f000e3a1dbf104c1f0022335c4c87511f00c0ecc309a1561f00969909d9665b1f008cd01082e05f1f00"
    "725744dd14641f00789685f609681f00e6022b2ac56b1f00f4e4323d4b6f1f003af19071a0721f00d6094d97c8751f00c05c041bc7781f00"
    "f43f41129f7b1f008a9f0746537e1f003811e23be6801f006291ad3d5a831f0012b95660b1851f006242b289ed871f00fa749375108a1f00"
    "ac393dba1b8c1f004ad045cc108e1f00163e0102f18f1f00e0588396bd911f00d8af47ac77931f00da648b4f20951f0092386378b8961f00"
    "9288960c41981f0080ba46e1ba991f00007f69bc269b1f007a711b56859c1f0002d8cf59d79d1f00cea161671d9f1f00c036091458a01f00"
    "38333aeb87a11f00fcc46b6fada21f008206ce1ac9a31f00a26aee5fdba41f007c094daae4a51f008267e45ee5a61f00c41ea5dcdda71f00"
    "74a8e67ccea81f00ee5fce93b7a91f0058b8ad7099aa1f003282585e74ab1f00840574a348ac1f00e89fbf8216ad1f00c082573bdead1f00"
    "6c1df208a0ae1f007eb018245caf1f00127a5bc212b01f00f4df8116c4b01f00faf1b65070b11f003a96b29e17b21f004aa8df2bbab21f00"
    "184e7f2158b31f000cbec9a6f1b31f00d6ac0ce186b41f00fc93c7f317b51f00aafdc500a5b51f0058fe37282eb61f000a01c988b3b61f00"
    "9807b53f35b71f00a87ddc68b3b71f0008bad61e2eb81f00f647037ba5b81f00740f9a9519b91f000472ba858ab91f00266f7961f8b91f00"
    "86e2ee3d63ba1f0016ec412fcbba1f004491b44830bb1f00e2a4ae9c92bb1f009e02c83cf2bb1f009429d2394fbc1f00d440e1a3a9bc1f00"
    "9e8f548a01bd1f009c72defb56bd1f006ad68b06aabd1f00403fcbb7fabd1f00de64731c49be1f005e69c94095be1f0028b18630dfbe1f00"
    "7461def626bf1f00e28a829e6cbf1f00c404a931b0bf1f00b0fd0fbaf1bf1f008845024131c01f00b2545bcf6ec01f0026148b6daac01f00"
    "8a699923e4c01f00648a29f91bc11f0042197df551c11f004a0f771f86c11f00b4749e7db8c11f0042ea2016e9c11f00de05d5ee17c21f00"
    "fe833c0d45c21f00c24f867670c21f000e63902f9ac21f004680e93cc2c21f00b4c6d2a2e8c21f00ec2241650dc31f000e9cde8730c31f00"
    "c67e0b0e52c31f00f866dffa71c31f0086282a5190c31f00fa977413adc31f0048330144c8c31f0040abcce4e1c31f00a84d8ef7f9c31f00"
    "6050b87d10c41f0068fd777825c41f00c6bfb5e838c41f002a1115cf4ac41f00e847f42b5bc41f0004456cff69c41f00b201504977c41f00"
    "b8fb2b0983c41f00f67f453e8dc41f001ad299e795c41f00b030dd039dc41f0032b47991a2c41f00fc078e8ea6c41f008cfbebf8a8c41f00"
    "9eea16cea9c41f0034fa410ba9c41f00a0284eada6c41f00742ec8b0a2c41f00e22de6119dc41f00f42d85cc95c41f00c05e26dc8cc41f00"
    "7a23ec3b82c41f00e6de96e675c41f00827e81d667c41f0036c09d0558c41f00202e706d46c41f0098cb0b0733c41f000e6e0dcb1dc41f00"
    "f6bb96b106c41f0062cb48b2edc31f003c593ec4d2c31f00b49105deb5c31f004c6199f596c31f0092455a0076c31f00709306f352c31f00"
    "1828b2c12dc31f008878bd5f06c31f0062f2cbbfdcc21f009e9fb9d3b0c21f00f0fc8f8c82c21f0064f179da51c21f009ed3b6ac1ec21f00"
    "56678cf1e8c11f003cbb3796b0c11f0010cddc8675c11f00b6d674ae37c11f001424bbf6f6c01f00a44d1848b3c01f00f0af8b896cc01f00"
    "64f392a022c01f00b8720f71d5bf1f008e4829dd84bf1f000ac62fc530bf1f00c60c7707d9be1f00da7d32807dbe1f0014a64b091ebe1f00"
    "0844357ababd1f0026f8b9a752bd1f001a20c663e6bc1f00e44d2c7d75bc1f00aab763bfffbb1f00a2e63ff284bb1f008cd1a0d904bb1f00"
    "ac701a357fba1f0018b692bff3b91f00fcabd42e62b91f00164a1733cab81f00545b76762bb81f005c895b9c85b71f009455d540d8b61f00"
    "4269d9f722b61f00e0376f4c65b51f00d269bfbf9eb41f0046e703c8ceb31f003e9c53cff4b21f005228443210b21f0004965a3e20b11f00"
    "c2e1423024b01f00a679c4311baf1f0004e1675704ae1f00722dbf9ddeac1f000a0640e6a8ab1f0028ff99f361aa1f00a2666f6508a91f00"
    "3c8d50b39aa71f0014f2d12617a61f0000ea8bd47ba41f0094c0c593c6a21f0014f37df4f4a01f000abe6b33049f1f00bcf9792bf19c1f00"
    "c4ab1544b89a1f00b82f785b55981f00783fd0abc3951f00f2f1cea9fd921f001ce49adafc8f1f00f885739eb98c1f00069647ec2a891f00"
    "8edb04f945851f009a0336c3fd801f0026e93978427c1f00cc2a58a300771f001c241a0f20711f002a35b734826a1f0066e2a80000631f00"
    "c4e34f90665a1f007211ce4e72501f00da6f5c66c7441f00a2598aa3e5361f000a34503414261f0014047b043e111f00e6cb57faaef61e00"
    "1e1588a18cd31e00b02d121ea6a21e007c268bc761591e00b00bac2bf6dd1d00c0e8e4d94ddb1c00"
)
_FE, _WE, _KE = (
    struct.unpack_from(fmt, _TABLES, offset)
    for fmt, offset in (("<256d", 0), ("<256d", 2048), ("<256Q", 4096))
)
