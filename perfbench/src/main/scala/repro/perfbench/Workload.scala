package repro.perfbench

import repro.al.{ActiveLearner, AlmserAL, BootstrapAL}
import repro.core.MoRERConfig

/** One benchmark workload: a corpus, its P_I/P_U split and a MoRER
  * configuration. The workload seed picks the Dexter problem split and
  * the MoRER seed; the generated corpora themselves are fixed.
  *
  * @param unsolvedLimit integrate only the first n problems of the seeded
  *                      P_U order (keeps sel_cov within a run)
  */
final case class Workload(
    name: String,
    dataset: String,
    sf: Double,
    al: ActiveLearner,
    selection: String,
    unsolvedLimit: Option[Int] = None,
) {
  /** The MoRER seed is `seed + 6`, so seed 1 gives the split seed 1 and
    * MoRER seed 7 that the repository's bench suites use.
    */
  def config(seed: Long): MoRERConfig =
    MoRERConfig(al = al, bTot = Workload.BTot, selection = selection, tCov = 0.25, seed = seed + 6)
}

object Workload {
  val BTot = 1000

  val all: Seq[Workload] = Seq(
    Workload("dexter-base", "dexter", 0.1, BootstrapAL, "base"),
    Workload("dexter-cov", "dexter", 0.1, BootstrapAL, "cov", unsolvedLimit = Some(16)),
    Workload("music-almser", "music", 0.2, AlmserAL, "base"),
  )

  def byName(n: String): Option[Workload] = all.find(_.name == n)
}
