package repro.ml

import scala.collection.mutable

/** Text featurization shared by the language-model baseline simulators:
  * tokenization, character n-grams, and feature hashing into a fixed
  * dimensionality (the stand-in for learned embeddings / subword vocab).
  */
object TextFeatures {
  /** Lowercased alphanumeric tokens. */
  def tokens(s: String): Array[String] =
    if (s == null) Array.empty
    else s.toLowerCase.split("[^a-z0-9]+").filter(_.nonEmpty)

  /** Character n-grams of the whitespace-collapsed lowercased string. */
  def charNGrams(s: String, n: Int = 3): Array[String] = {
    if (s == null) return Array.empty
    val t = s.toLowerCase.replaceAll("\\s+", " ").trim
    if (t.length < n) Array(t) else t.sliding(n).toArray
  }

  /** Non-negative hash bucket for a term. */
  def bucket(term: String, dim: Int): Int = {
    val h = scala.util.hashing.MurmurHash3.stringHash(term, 0x9747b28c)
    ((h % dim) + dim) % dim
  }

  /** Hash terms into a sparse L2-normalized count vector (sorted indices). */
  def hashed(terms: Array[String], dim: Int): (Array[Int], Array[Double]) = {
    val counts = mutable.LongMap.empty[Double]
    terms.foreach { t => val b = bucket(t, dim).toLong; counts(b) = counts.getOrElse(b, 0.0) + 1.0 }
    val idx  = counts.keys.toArray.sorted
    val vals = idx.map(counts(_))
    val norm = math.sqrt(vals.map(v => v * v).sum)
    (idx.map(_.toInt), if (norm > 0) vals.map(_ / norm) else vals)
  }

  /** Hash terms into a dense L2-normalized count vector — the input
    * representation of the neural baseline simulators.
    */
  def denseHashed(terms: Array[String], dim: Int): Array[Double] = {
    val v = new Array[Double](dim)
    terms.foreach(t => v(bucket(t, dim)) += 1.0)
    val n = math.sqrt(v.map(x => x * x).sum)
    if (n > 0) { var i = 0; while (i < dim) { v(i) /= n; i += 1 } }
    v
  }

  /** Dense pair representation |a-b| ⊕ a⊙b (disagreement + shared
    * evidence) for the supervised neural pair classifiers.
    */
  def densePair(a: Array[Double], b: Array[Double]): Array[Double] = {
    val out = new Array[Double](2 * a.length)
    var i = 0
    while (i < a.length) {
      out(i) = math.abs(a(i) - b(i))
      out(a.length + i) = a(i) * b(i)
      i += 1
    }
    out
  }

  /** Cosine of two dense vectors. */
  def denseCosine(a: Array[Double], b: Array[Double]): Double = {
    var dot = 0.0; var na = 0.0; var nb = 0.0; var i = 0
    while (i < a.length) { dot += a(i) * b(i); na += a(i) * a(i); nb += b(i) * b(i); i += 1 }
    if (na > 0 && nb > 0) dot / math.sqrt(na * nb) else 0.0
  }

  /** Cosine similarity between two sparse vectors with sorted indices. */
  def cosine(ia: Array[Int], va: Array[Double], ib: Array[Int], vb: Array[Double]): Double = {
    var i = 0; var j = 0; var dot = 0.0
    while (i < ia.length && j < ib.length) {
      if (ia(i) == ib(j)) { dot += va(i) * vb(j); i += 1; j += 1 }
      else if (ia(i) < ib(j)) i += 1
      else j += 1
    }
    dot // inputs are L2-normalized
  }
}
