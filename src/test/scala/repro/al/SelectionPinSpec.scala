package repro.al

import java.nio.charset.StandardCharsets
import java.security.MessageDigest
import repro.{SparkSpec, TestData}
import repro.core.ModelRepository
import repro.ml.PoolVector

/** Pins the exact ordered selections of both learners on the tiny camera
  * corpus. Every AL sort ends in a total order on (score, recA, recB), so
  * a selection is a deterministic function of the pool, the seed and the
  * IDF map; a change to how the loop runs must not change what it picks.
  */
class SelectionPinSpec extends SparkSpec {

  private def pool() = TestData.camera.pairs
    .select("problemId", "recA", "recB", "features", "label")

  /** Self problems and cross-source problems as two clusters. */
  private lazy val idf: Map[Long, Double] = {
    val clusterOf = TestData.camera.problemIds.map(p =>
      p -> (if (p.matches("p(\\d+)_\\1")) 0 else 1)).toMap
    ModelRepository.idfScores(spark, pool(), clusterOf)
  }

  /** Size and SHA-256 prefix of the ordered (problemId, recA, recB) keys. */
  private def digest(out: IndexedSeq[PoolVector]): (Int, String) = {
    val keys = out.map(v => s"${v.problemId}|${v.recA}|${v.recB}").mkString(",")
    val sha = MessageDigest.getInstance("SHA-256").digest(keys.getBytes(StandardCharsets.UTF_8))
    (out.size, sha.take(8).map(b => f"$b%02x").mkString)
  }

  private val bootstrapCfg = ALConfig(kModels = 5, batchSize = 40, initSize = 20)
  private val almserCfg = ALConfig(kModels = 6, batchSize = 30, initSize = 20)

  test("the IDF map of the pinned runs is non-empty and not all zero") {
    assert(idf.values.exists(_ > 0.0))
  }

  test("Bootstrap selection at seed 3 without IDF is pinned") {
    assert(digest(BootstrapAL.select(spark, pool(), 120, bootstrapCfg, Map.empty, 3)) ==
      ((120, "33cfb574318b5394")))
  }

  test("Bootstrap selection at seed 3 with IDF is pinned") {
    assert(digest(BootstrapAL.select(spark, pool(), 120, bootstrapCfg, idf, 3)) ==
      ((120, "5725b1581197ef5b")))
  }

  test("Almser selection at seed 3 without IDF is pinned") {
    assert(digest(AlmserAL.select(spark, pool(), 90, almserCfg, Map.empty, 3)) ==
      ((90, "7176463c029ddf59")))
  }

  test("Almser selection at seed 3 with IDF is pinned") {
    assert(digest(AlmserAL.select(spark, pool(), 90, almserCfg, idf, 3)) ==
      ((90, "de36e2372d72510a")))
  }
}
