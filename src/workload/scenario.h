/**
 * @file
 * RTMM workload scenarios: tasks (periodic model inferences) with
 * FPS targets and control/data dependencies, including the five
 * industry-originated scenarios of Table 3.
 */

#ifndef DREAM_WORKLOAD_SCENARIO_H
#define DREAM_WORKLOAD_SCENARIO_H

#include <limits>
#include <string>
#include <vector>

#include "models/model.h"

namespace dream {
namespace workload {

/** Index of a task within a scenario. */
using TaskId = int;

/** No-parent marker for root tasks. */
constexpr TaskId kNoParent = -1;

/**
 * One task: periodic inference of one model.
 *
 * Root tasks (dependsOn == kNoParent) release a frame every
 * 1e6/fps microseconds. Dependent tasks release a frame when the
 * parent task's frame completes and the parent's cascade gate fired
 * (control dependency with probability @ref triggerProb).
 */
struct TaskSpec {
    models::Model model;
    double fps = 30.0;
    TaskId dependsOn = kNoParent;
    /** P(child launches | parent frame completes). */
    double triggerProb = 1.0;
    /** Activation window (task-level dynamicity). */
    double startUs = 0.0;
    double endUs = std::numeric_limits<double>::infinity();

    /** Frame period in microseconds. */
    double periodUs() const { return 1e6 / fps; }
};

/** A complete RTMM workload: a set of (possibly dependent) tasks. */
struct Scenario {
    std::string name;
    std::vector<TaskSpec> tasks;

    /** Children of task @p parent. */
    std::vector<TaskId> childrenOf(TaskId parent) const;
    /** True if no other task depends on @p task (frame-drop Cond. 3). */
    bool isLeaf(TaskId task) const;
    /** Each task's model, in task order (a CostTable's coverage). */
    std::vector<const models::Model*> models() const;
};

/** Identifier for the five Table 3 scenarios. */
enum class ScenarioPreset {
    VrGaming,
    ArCall,
    DroneOutdoor,
    DroneIndoor,
    ArSocial,
};

/**
 * Build a Table 3 scenario.
 *
 * @param preset        which scenario
 * @param cascade_prob  probability of launching dependent pipeline
 *                      stages (the paper's default is 0.5; Figure 12
 *                      sweeps it to 0.99)
 */
Scenario makeScenario(ScenarioPreset preset, double cascade_prob = 0.5);

/** All five presets in Table 3 order. */
std::vector<ScenarioPreset> allScenarioPresets();

/** Display name, e.g. "VR_Gaming". */
std::string toString(ScenarioPreset preset);

} // namespace workload
} // namespace dream

#endif // DREAM_WORKLOAD_SCENARIO_H
