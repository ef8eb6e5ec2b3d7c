package repro.ml

import org.scalatest.funsuite.AnyFunSuite

class TextFeaturesSpec extends AnyFunSuite {
  import TextFeatures._

  test("tokens lowercases and splits on non-alphanumerics") {
    assert(tokens("Canon EOS-5D, Mark II!").toSeq == Seq("canon", "eos", "5d", "mark", "ii"))
  }

  test("tokens of null is empty") { assert(tokens(null).isEmpty) }
  test("tokens of empty string is empty") { assert(tokens("").isEmpty) }

  test("charNGrams produces sliding windows") {
    assert(charNGrams("abcd", 3).toSeq == Seq("abc", "bcd"))
  }

  test("charNGrams of short string returns the string") {
    assert(charNGrams("ab", 3).toSeq == Seq("ab"))
  }

  test("charNGrams collapses whitespace") {
    assert(charNGrams("a   b", 3).toSeq == Seq("a b"))
  }

  test("bucket is stable and within range") {
    (0 until 100).foreach { i =>
      val b = bucket(s"term$i", 64)
      assert(b >= 0 && b < 64)
      assert(b == bucket(s"term$i", 64))
    }
  }

  test("hashed vector is L2-normalized with sorted indices") {
    val (idx, vals) = hashed(Array("a", "b", "c", "a"), 1 << 10)
    assert(idx.toSeq == idx.sorted.toSeq)
    assert(math.abs(vals.map(v => v * v).sum - 1.0) < 1e-9)
  }

  test("hashed of empty input is empty") {
    val (idx, vals) = hashed(Array.empty[String], 16)
    assert(idx.isEmpty && vals.isEmpty)
  }

  test("cosine of identical vectors is 1") {
    val (i, v) = hashed(Array("x", "y", "z"), 1 << 10)
    assert(math.abs(cosine(i, v, i, v) - 1.0) < 1e-9)
  }

  test("cosine of disjoint vectors is 0") {
    val (ia, va) = hashed(Array("aaa"), 1 << 12)
    val (ib, vb) = hashed(Array("zzz"), 1 << 12)
    assert(cosine(ia, va, ib, vb) == 0.0 || (ia sameElements ib)) // barring a hash collision
  }

  test("cosine is symmetric") {
    val (ia, va) = hashed(Array("a", "b"), 1 << 10)
    val (ib, vb) = hashed(Array("b", "c"), 1 << 10)
    assert(math.abs(cosine(ia, va, ib, vb) - cosine(ib, vb, ia, va)) < 1e-12)
  }
}
