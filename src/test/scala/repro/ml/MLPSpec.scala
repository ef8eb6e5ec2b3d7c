package repro.ml

import java.nio.ByteBuffer
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class MLPSpec extends AnyFunSuite {

  private def xor(n: Int, seed: Long = 1): (IndexedSeq[Array[Double]], IndexedSeq[Int]) = {
    val rng = new Random(seed)
    val xs = IndexedSeq.fill(n) {
      Array(rng.nextInt(2).toDouble, rng.nextInt(2).toDouble)
    }
    (xs, xs.map(x => (x(0).toInt ^ x(1).toInt)))
  }

  private def linear(n: Int, seed: Long = 2): (IndexedSeq[Array[Double]], IndexedSeq[Int]) = {
    val rng = new Random(seed)
    val xs = IndexedSeq.fill(n)(Array(rng.nextDouble(), rng.nextDouble()))
    (xs, xs.map(x => if (x(0) + x(1) > 1.0) 1 else 0))
  }

  test("classifier learns a linearly separable problem") {
    val (xs, ys) = linear(500)
    val m = MLP.fitClassifier(xs, ys, hidden = 8, epochs = 20, lr = 0.2, seed = 1)
    val acc = xs.indices.count(i => m.predict(xs(i)) == ys(i)).toDouble / xs.size
    assert(acc > 0.95, s"accuracy $acc")
  }

  test("classifier learns XOR (nonlinear capacity)") {
    val (xs, ys) = xor(400)
    val m = MLP.fitClassifier(xs, ys, hidden = 8, epochs = 60, lr = 0.3, seed = 3)
    val acc = xs.indices.count(i => m.predict(xs(i)) == ys(i)).toDouble / xs.size
    assert(acc > 0.95, s"XOR accuracy $acc")
  }

  test("predictProb is a probability") {
    val (xs, ys) = linear(100)
    val m = MLP.fitClassifier(xs, ys, hidden = 4, epochs = 5)
    xs.foreach { x => val p = m.predictProb(x); assert(p > 0 && p < 1) }
  }

  test("training is deterministic in the seed") {
    val (xs, ys) = linear(200)
    val a = MLP.fitClassifier(xs, ys, hidden = 4, epochs = 5, seed = 9)
    val b = MLP.fitClassifier(xs, ys, hidden = 4, epochs = 5, seed = 9)
    assert(a.b2 == b.b2)
    assert(a.w2.toSeq == b.w2.toSeq)
  }

  test("model is serializable (broadcast requirement)") {
    val (xs, ys) = linear(100)
    val m = MLP.fitClassifier(xs, ys, hidden = 4, epochs = 3)
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(m)
    val back = new java.io.ObjectInputStream(
      new java.io.ByteArrayInputStream(bos.toByteArray)).readObject().asInstanceOf[MLPModel]
    assert(back.predictProb(xs.head) == m.predictProb(xs.head))
  }

  test("invalid training input is rejected") {
    assertThrows[IllegalArgumentException](
      MLP.fitClassifier(IndexedSeq.empty, IndexedSeq.empty))
    assertThrows[IllegalArgumentException](
      MLP.fitClassifier(IndexedSeq(Array(0.0)), IndexedSeq(1, 0)))
  }

  test("embed returns an L2-normalized vector") {
    val (xs, ys) = linear(100)
    val m = MLP.fitClassifier(xs, ys, hidden = 8, epochs = 3)
    val e = m.embed(Array(0.5, 0.7))
    val norm = math.sqrt(e.map(v => v * v).sum)
    assert(math.abs(norm - 1.0) < 1e-9 || norm == 0.0)
  }

  test("contrastive encoder pulls augmented views together") {
    val rng = new Random(4)
    val dim = 32
    // two families of vectors with disjoint support
    def fam(off: Int) = {
      val v = new Array[Double](dim)
      (0 until 8).foreach(i => v(off + i) = 0.5 + rng.nextDouble() * 0.5)
      val n = math.sqrt(v.map(x => x * x).sum); v.map(_ / n)
    }
    val as = IndexedSeq.fill(50)(fam(0))
    val bs = IndexedSeq.fill(50)(fam(16))
    val triplets = Iterator.range(0, 20).flatMap { _ =>
      as.indices.iterator.map { i =>
        (as(i), as((i + 1) % as.size), bs(rng.nextInt(bs.size)))
      }
    }
    val enc = MLP.fitEncoder(triplets, in = dim, hidden = 8, lr = 0.05, seed = 5)
    val simSame = TextFeatures.denseCosine(enc.embed(as(0)), enc.embed(as(1)))
    val simDiff = TextFeatures.denseCosine(enc.embed(as(0)), enc.embed(bs(0)))
    assert(simSame > simDiff, s"same $simSame !> diff $simDiff")
  }

  test("encoder training with no triplets returns the initialization") {
    val e1 = MLP.fitEncoder(Iterator.empty, in = 8, hidden = 4, seed = 7)
    val e2 = MLP.init(8, 4, 7)
    assert(e1.w1.map(_.toSeq).toSeq == e2.w1.map(_.toSeq).toSeq)
  }

  /** SHA-256 prefix of every weight's bit pattern. */
  private def weightDigest(m: MLPModel): String = {
    val ws = m.w1.flatten ++ m.b1 ++ m.w2 :+ m.b2
    val buf = ByteBuffer.allocate(8 * ws.length)
    ws.foreach(w => buf.putLong(java.lang.Double.doubleToLongBits(w)))
    MessageDigest.getInstance("SHA-256").digest(buf.array()).take(8).map(b => f"$b%02x").mkString
  }

  test("fitted weights of both trainers at a fixed seed are pinned") {
    val (xs, ys) = xor(300)
    val cls = MLP.fitClassifier(xs, ys, hidden = 8, epochs = 10, lr = 0.3, seed = 3)
    val rng = new Random(11)
    val vs = IndexedSeq.fill(40)(Array.fill(6)(rng.nextDouble()))
    val triplets = Iterator.range(0, 200).map(i => (vs(i % 40), vs((i + 1) % 40), vs((i * 7 + 3) % 40)))
    val enc = MLP.fitEncoder(triplets, in = 6, hidden = 8, lr = 0.05, seed = 5)
    assert((weightDigest(cls), weightDigest(enc)) == (("988a104422cc106c", "a5e4b5e367ef2c77")))
  }
}
